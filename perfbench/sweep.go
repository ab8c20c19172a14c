package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/runner"
	"fleetsim/internal/service"
	"fleetsim/internal/telemetry"
)

// The sweep workload: one client submits one quick job per sweep
// experiment to an in-process service and waits for it (a closed loop).
// One worker and serial legs keep workers x parallelism at 1. A cycle is
// one job per experiment; the run measures whole cycles, one per
// sweepSecondsPerCycle seconds asked for and at least one, so every run
// times the same mix of cells. A cycle takes 13-22 s on a 2-vCPU Xeon
// host, so up to --seconds 29 a run is one cycle. From two cycles on,
// each later cycle's cells must repeat the first cycle's.
const (
	sweepScale           = 256
	sweepSecondsPerCycle = 20
	sweepWarmup          = "fig7"
)

// sweepUseTime is the Use each hot-launch protocol launch is followed by
// at the experiments' default parameters.
const sweepUseTime = 10 * time.Second

type sweepRig struct {
	svc    *service.Service
	reg    *telemetry.Registry
	simReg *telemetry.Registry
	dir    string
}

func (r *sweepRig) close() {
	r.svc.Close()
	telemetry.SetSimRegistry(nil)
	os.RemoveAll(r.dir)
}

func startSweep(o runOpts) (*sweepRig, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "sweep-")
	if err != nil {
		return nil, err
	}
	r := &sweepRig{reg: telemetry.NewRegistry(), dir: dir}
	runner.SetParallelism(1)
	sp := o.tr.begin("service.New", -1)
	r.svc, err = service.New(service.Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "journal"),
		Telemetry:   r.reg,
	})
	o.tr.end(sp)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// Warm-up: one small job pays the service's lazy set-up (first
	// journal appends, Go heap growth) before anything is timed.
	if _, err := runSweepJob(o, r.svc, sweepWarmup, -1); err != nil {
		r.close()
		return nil, fmt.Errorf("sweep warm-up: %w", err)
	}
	// The sim bridge goes in after the warm-up, so it sees only measured
	// jobs. Its launch histograms are registered first with 1%-wide
	// buckets (the first registration's buckets win), fine enough to read
	// percentiles from.
	r.simReg = telemetry.NewRegistry()
	for _, pol := range android.PolicyNames() {
		for _, fam := range launchFamilies {
			r.simReg.Histogram(fam, "", fineBuckets, "policy", pol)
		}
	}
	telemetry.SetSimRegistry(r.simReg)
	return r, nil
}

// launchFamilies are the sim-bridge histograms of launch latency.
var launchFamilies = []string{"fleetsim_hot_launch_ms", "fleetsim_cold_launch_ms"}

// fineBuckets are geometric millisecond buckets 1% apart, 0.1 ms to 100 s.
var fineBuckets = func() []float64 {
	var b []float64
	for x := 0.1; x < 1e5; x *= 1.01 {
		b = append(b, x)
	}
	return b
}()

func runSweep(o runOpts) (*pass, error) {
	p := newPass()
	var rig *sweepRig
	var setup setupClock
	p.whole.start()
	for rep := 0; rep < o.reps; rep++ {
		if rig != nil {
			rig.close()
		}
		setup.begin()
		sp := o.tr.begin("setup", -1)
		var err error
		rig, err = startSweep(o)
		o.tr.end(sp)
		if err != nil {
			return nil, err
		}
		setup.end()
	}
	defer rig.close()
	setup.result(p)

	first := map[string]string{}
	var overhead []time.Duration
	cycles := max(1, int(math.Round(o.seconds/sweepSecondsPerCycle)))
	p.meter.start()
	for cycle := 0; cycle < cycles; cycle++ {
		for _, exp := range sweepExperiments {
			op := p.ops
			t0 := now()
			top := o.tr.begin("op", op)
			cell, err := runSweepJob(o, rig.svc, exp, op)
			o.tr.end(top)
			p.addOp(t0)
			took := p.opWall[len(p.opWall)-1]
			p.ops++
			switch {
			case err != nil:
				p.fail("sweep %s (cycle %d): %v", exp, cycle, err)
				p.failed++
				continue
			case cycle == 0:
				first[exp] = cell.Digest
			case cell.Digest != first[exp]:
				p.fail("sweep %s: cycle %d digest %s, cycle 0 %s", exp, cycle, cell.Digest, first[exp])
				p.failed++
			}
			overhead = append(overhead, took-time.Duration(cell.MS*float64(time.Millisecond)))
		}
		p.meter.stop()
		launches := launchCounts(rig.simReg)
		if cycle == 0 {
			sweepSimResults(p, rig.simReg)
			for k, d := range first {
				p.digests[k] = d
				p.digestOps[k] = 1
			}
		}
		p.simSeconds = float64(launches) * sweepUseTime.Seconds()
		p.meter.start()
	}
	p.meter.stop()
	p.whole.stop()

	st := rig.svc.Stats()
	if want := int(p.ops) + 1; st.Failed != 0 || st.Completed != want { // +1: the warm-up job
		p.fail("service stats: %d completed, %d failed, want %d completed", st.Completed, st.Failed, want)
	}
	c := p.counts
	c["service.queue_wait_ms"] = histMean(rig.reg.Histogram("fleetd_queue_wait_ms", "", telemetry.LatencyBuckets))
	c["service.journal_fsync_ms"] = histMean(rig.reg.Histogram("fleetd_journal_fsync_ms", "", nil))
	c["service.job_overhead_ms"] = percentile(msValues(overhead), 50)
	return p, nil
}

// runSweepJob submits one single-experiment job and follows it to its
// end, returning the cell event.
func runSweepJob(o runOpts, svc *service.Service, exp string, op int64) (service.Event, error) {
	sp := o.tr.begin("service.Submit", op)
	view, err := svc.Submit(service.JobSpec{Experiments: []string{exp}, Quick: true, Scale: sweepScale, Seed: o.seed})
	o.tr.end(sp)
	if err != nil {
		return service.Event{}, err
	}
	var cell, last service.Event
	watch := o.tr.begin("service.Watch", op)
	err = svc.Watch(context.Background(), view.ID, func(ev service.Event) error {
		if ev.Phase == "cell" {
			cell = ev
			end := ev.Time
			o.tr.add("experiments."+ev.Experiment, op, watch, end.Add(-time.Duration(ev.MS*float64(time.Millisecond))), end)
		}
		last = ev
		return nil
	})
	o.tr.end(watch)
	if err != nil {
		return cell, err
	}
	if last.Phase != "done" {
		return cell, fmt.Errorf("job %s ended %q: %s", view.ID, last.Phase, last.Err)
	}
	return cell, nil
}

// sweepSimResults reads the first cycle's simulated launch latencies
// under Fleet from the sim-telemetry registry. Later cycles repeat the
// same jobs, so they are not read. The cached-apps figure is the
// pressure population times the share of Fleet launches that were hot.
func sweepSimResults(p *pass, simReg *telemetry.Registry) {
	fleet := android.PolicyFleet.String()
	hot := simReg.Histogram(launchFamilies[0], "", fineBuckets, "policy", fleet)
	cold := simReg.Histogram(launchFamilies[1], "", fineBuckets, "policy", fleet)
	p.fleetP50, p.fleetP95 = histQuantile(hot, 0.5), histQuantile(hot, 0.95)
	if n := hot.Count() + cold.Count(); n > 0 {
		p.fleetCached = pressureApps * float64(hot.Count()) / float64(n)
	}
}

// launchCounts is every launch the experiments published, all policies.
func launchCounts(simReg *telemetry.Registry) int64 {
	var n int64
	for _, pol := range android.PolicyNames() {
		for _, fam := range launchFamilies {
			n += simReg.Histogram(fam, "", fineBuckets, "policy", pol).Count()
		}
	}
	return n
}

func histMean(h *telemetry.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Count())
}

// histQuantile interpolates quantile q linearly inside its bucket; with
// fineBuckets that is within 1% of the sample quantile.
func histQuantile(h *telemetry.Histogram, q float64) float64 {
	counts, bounds := h.BucketCounts(), h.Bounds()
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c > 0 && float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) { // overflow bucket: no upper bound
				return lo
			}
			return lo + (bounds[i]-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}
