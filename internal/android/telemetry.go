package android

import (
	"time"

	"fleetsim/internal/telemetry"
	"fleetsim/internal/vmem"
)

// TelemetryRecord is everything a finished run exports to the
// sim-telemetry registry: launch latencies, GC pauses and copy volume,
// swap traffic, lmkd kills and, on a compressed backend, the zram
// counters. It is plain data, so a run's record can be kept (and
// serialized into a checkpoint) and published later — a reused or
// restored experiment leg publishes exactly what its fresh run did.
type TelemetryRecord struct {
	Policy string
	// HotLaunches and ColdLaunches are the launch times in launch order.
	HotLaunches  []time.Duration
	ColdLaunches []time.Duration
	// GCPauses are the stop-the-world pauses in collection order.
	GCPauses    []time.Duration
	BytesCopied int64

	SwapIns, SwapOuts int64

	HardKills, PSIKills, OOMKills, CrashKills, SwamKills int

	// Zram holds the compressed backend's counters; nil on flash.
	Zram *vmem.BackendStats `json:",omitempty"`
}

// CaptureTelemetry records the run's aggregate simulation metrics. It
// only reads the system, so capturing cannot perturb determinism.
func (s *System) CaptureTelemetry() TelemetryRecord {
	r := TelemetryRecord{
		Policy:     s.Cfg.Policy.String(),
		HardKills:  s.M.HardKills,
		PSIKills:   s.M.PSIKills,
		OOMKills:   s.M.OOMKills,
		CrashKills: s.M.CrashKills,
		SwamKills:  s.M.SwamKills,
	}
	for _, l := range s.M.Launches {
		if l.Hot {
			r.HotLaunches = append(r.HotLaunches, l.Time)
		} else {
			r.ColdLaunches = append(r.ColdLaunches, l.Time)
		}
	}
	r.GCPauses = make([]time.Duration, len(s.M.GCs))
	for i, g := range s.M.GCs {
		r.GCPauses[i] = g.Pause
		r.BytesCopied += g.BytesCopied
	}
	st := s.VM.Stats()
	r.SwapIns, r.SwapOuts = st.SwapIns, st.SwapOuts
	if s.VM.Swap.Name() == "zram" {
		z := s.VM.Swap.BackendStats()
		r.Zram = &z
	}
	return r
}

// Publish exports the record into the process sim-telemetry registry,
// labelled by memory policy. When no registry is installed (the default:
// library use, the test suite, fleetsim without a daemon) this is a
// nil-check and return. The bridge is strictly write-only, so enabling it
// cannot perturb determinism; the telemetry determinism test in
// internal/experiments pins that.
func (r *TelemetryRecord) Publish() {
	reg := telemetry.SimRegistry()
	if reg == nil {
		return
	}
	const ms = float64(time.Millisecond)
	policy := r.Policy

	observe := func(name, help string, ds []time.Duration) {
		h := reg.Histogram(name, help, telemetry.LatencyBuckets, "policy", policy)
		for _, d := range ds {
			h.Observe(float64(d) / ms)
		}
	}
	observe("fleetsim_hot_launch_ms", "Hot-launch latency by memory policy.", r.HotLaunches)
	observe("fleetsim_cold_launch_ms", "Cold-launch latency by memory policy.", r.ColdLaunches)
	observe("fleetsim_gc_pause_ms", "Stop-the-world GC pause by memory policy.", r.GCPauses)
	reg.Counter("fleetsim_gc_bytes_copied_total",
		"Bytes moved by copying/compacting collections, by memory policy.", "policy", policy).Add(r.BytesCopied)

	reg.Counter("fleetsim_swap_ins_total",
		"Pages swapped in, by memory policy.", "policy", policy).Add(r.SwapIns)
	reg.Counter("fleetsim_swap_outs_total",
		"Pages swapped out, by memory policy.", "policy", policy).Add(r.SwapOuts)

	kills := func(kind string, n int) {
		reg.Counter("fleetsim_lmkd_kills_total",
			"lmkd and OOM kills by policy and kind.", "policy", policy, "kind", kind).Add(int64(n))
	}
	kills("hard", r.HardKills)
	kills("psi", r.PSIKills)
	kills("oom", r.OOMKills)
	kills("crash", r.CrashKills)
	kills("swam", r.SwamKills)

	// Compressed-backend counters, published only when the device actually
	// runs one so flash-only fleets keep a clean /metrics page.
	z := r.Zram
	if z == nil {
		return
	}
	zc := func(name, help string, v int64) {
		reg.Counter(name, help, "policy", policy, "backend", "zram").Add(v)
	}
	zc("fleetsim_zram_stored_pages",
		"Pages resident compressed in the zram pool at end of run.", z.StoredPages)
	zc("fleetsim_zram_compressed_bytes",
		"Pool bytes occupied by compressed pages at end of run.", z.CompressedBytes)
	zc("fleetsim_zram_fallthroughs_total",
		"Incompressible pages routed straight to backing flash.", z.Fallthroughs)
	zc("fleetsim_zram_writebacks_total",
		"Cold compressed pages written back to flash for pool room.", z.Writebacks)
	zc("fleetsim_zram_full_rejects_total",
		"Stores refused because neither pool nor backing had room.", z.FullRejects)
	zc("fleetsim_zram_compress_cpu_ms_total",
		"CPU time charged to reclaim for page compression.", int64(z.CompressCPU/time.Millisecond))
	zc("fleetsim_zram_decompress_cpu_ms_total",
		"CPU time charged to faulting threads for decompression.", int64(z.DecompressCPU/time.Millisecond))
	zc("fleetsim_zram_writeback_io_ms_total",
		"Asynchronous device time spent on hotness-driven writeback.", int64(z.WritebackIO/time.Millisecond))
}

// PublishTelemetry captures the run's record and publishes it at once —
// for runs that are not kept.
func (s *System) PublishTelemetry() {
	if telemetry.SimRegistry() == nil {
		return
	}
	r := s.CaptureTelemetry()
	r.Publish()
}
