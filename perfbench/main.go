// Command perfbench is fleetsim's end-to-end benchmark. It runs a fixed
// amount of one workload in this process, checks every output against
// reference digests and conservation laws, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	perfbench --workload hotlaunch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload twice, untraced and then traced (spans around every public
// call plus a CPU profile), and prints the per-layer metrics, including
// the tracing overhead; the spans are written as Chrome trace-event JSON.
// catalog.go lists the metrics and which end-to-end metric each per-layer
// one should move. "perfbench compare a.json b.json" compares two records
// written with --out and refuses when their host fingerprints differ.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"fleetsim/internal/metrics"
)

// procStart approximates process start: package variables initialise
// before main runs.
var procStart = time.Now()

// setupReps is how many times the untraced run sets the population and
// sweep workloads up; setup_s reports the median. hotlaunch and zram-swam
// set up once per episode and report the median over episodes.
const setupReps = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload: hotlaunch, zram-swam, population or sweep")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "sizes the run: more seconds add episodes, devices or cycles beyond the minimum")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", "", "also write the full result record (fingerprint, digests, metrics) to this file")
	flag.Parse()

	if !knownWorkload(*workload) || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload hotlaunch|zram-swam|population|sweep, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	opts := runOpts{workload: *workload, seed: *seed, seconds: *seconds, refs: builtinRefs()}
	var rec record
	var err error
	if *traced == 1 {
		path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d.trace.json", *workload, *seed))
		rec, err = tracedRun(opts, path)
	} else {
		rec, err = untracedRun(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	if *out != "" {
		data, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	head, _ := json.Marshal(struct {
		Fingerprint fingerprint                 `json:"fingerprint"`
		Digests     map[string]string           `json:"digests"`
		Notes       []string                    `json:"notes,omitempty"`
		Spans       map[string]spanSummaryEntry `json:"spans,omitempty"`
	}{rec.Fingerprint, rec.Digests, rec.Notes, rec.Spans})
	fmt.Printf("perfbench %s seed=%d %s\n", rec.Workload, rec.Seed, head)
	line, _ := json.Marshal(rec.Result)
	fmt.Println(string(line))
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runOpts configures one pass over a workload.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	reps     int     // set-up repetitions (population, sweep)
	tr       *tracer // nil: untraced
	refs     refSet
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result plus what it takes to interpret and compare it.
type record struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Traced      bool              `json:"traced"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Digests     map[string]string `json:"digests"`
	Problems    []string          `json:"problems,omitempty"`
	Notes       []string          `json:"notes,omitempty"`
	// Spans summarises the traced run's spans by name.
	Spans  map[string]spanSummaryEntry `json:"spans,omitempty"`
	Result result                      `json:"result"`
}

// spanSummaryEntry is one span name's count and host time: total, self
// (total minus the time its child spans cover) and median.
type spanSummaryEntry struct {
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
	MedianMS float64 `json:"median_ms"`
}

func spanSummary(st map[string]*spanStats) map[string]spanSummaryEntry {
	out := make(map[string]spanSummaryEntry, len(st))
	for name, s := range st {
		out[name] = spanSummaryEntry{s.Count, ms(s.Total), ms(s.Self), ms(s.Median)}
	}
	return out
}

// pass is what one run over a workload measured.
type pass struct {
	// setupWall and setupCPU are the time from process start to the first
	// set-up plus the median set-up, in wall and process-CPU seconds.
	setupWall, setupCPU float64
	meter               meter // the measured phase: ops only
	whole               meter // the whole pass, set-up included

	ops, failed   int64
	opWall, opCPU []time.Duration // per op
	simSeconds    float64         // simulated time the measured ops advanced

	// Deterministic simulated results over the workload's fixed prefix.
	fleetP50, fleetP95, fleetCached float64

	digests   map[string]string
	digestOps map[string]int64
	// counts are per-layer values read from public stats (exact for a
	// given seed) or derived from them.
	counts map[string]float64
	// hostNorm are whole-pass work counts used to turn CPU shares into
	// host nanoseconds per unit of work.
	objectsTraced, objectsAllocated, faults float64
	// simBySpan is the simulated time advanced inside spans of a name.
	simBySpan                        map[string]float64
	launchesIssued, launchesRecorded int64

	problems []string
	notes    []string
}

func newPass() *pass {
	return &pass{
		digests:   map[string]string{},
		digestOps: map[string]int64{},
		counts:    map[string]float64{},
		simBySpan: map[string]float64{},
	}
}

// opsPerDigest is how many ops produced digest k; they fail if it does
// not match its reference.
func (p *pass) opsPerDigest(k string) int64 {
	if n, ok := p.digestOps[k]; ok {
		return n
	}
	return p.ops
}

func (p *pass) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// guard runs fn and returns a panic as an error, so an op that crashes
// counts as a failed op instead of ending the run.
func guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

func runPass(o runOpts) (*pass, error) {
	switch o.workload {
	case "hotlaunch", "zram-swam":
		return runHotLaunch(o)
	case "population":
		return runPopulation(o)
	default:
		return runSweep(o)
	}
}

func untracedRun(o runOpts) (record, error) {
	o.reps = setupReps
	p, err := runPass(o)
	if err != nil {
		return record{}, err
	}
	checkRefs(o.refs, o.workload, o.seed, p)
	m := map[string]float64{
		"setup_s":             p.setupCPU,
		"cpu_ms_per_op":       ms(p.meter.cpu) / float64(p.ops),
		"op_cpu_ms_p50":       percentile(msValues(p.opCPU), 50),
		"op_cpu_ms_p95":       percentile(msValues(p.opCPU), 95),
		"sim_s_per_cpu_s":     p.simSeconds / p.meter.cpu.Seconds(),
		"peak_rss_mb":         peakRSSMB(),
		"alloc_mb_per_op":     float64(p.meter.alloc) / 1e6 / float64(p.ops),
		"fleet_launch_ms_p50": p.fleetP50,
		"fleet_cached_apps":   p.fleetCached,
	}
	return makeRecord(o, p, false, endToEnd, m), nil
}

func tracedRun(o runOpts, tracePath string) (record, error) {
	o.reps = 1
	base, err := runPass(o)
	if err != nil {
		return record{}, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return record{}, fmt.Errorf("start cpu profile: %w", err)
	}
	o.tr = newTracer()
	p, err := runPass(o)
	pprof.StopCPUProfile()
	if err != nil {
		return record{}, err
	}
	checkRefs(o.refs, o.workload, o.seed, p)
	for _, pr := range base.problems {
		p.fail("untraced pass: %s", pr)
	}
	p.failed += base.failed
	for k, d := range base.digests {
		if p.digests[k] != d {
			p.fail("tracing changed digest %s: untraced %s, traced %s", k, d, p.digests[k])
			p.failed += p.ops
		}
	}
	shares, samples, err := moduleShares(prof.Bytes())
	if err != nil {
		return record{}, err
	}
	m := layerMetrics(o, p, shares)
	m["trace.overhead_frac"] = (ms(p.meter.cpu)/float64(p.ops))/(ms(base.meter.cpu)/float64(base.ops)) - 1
	// Wall-clock figures of the untraced pass. On a shared host they move
	// with the neighbours' load, so they carry no bound.
	m["wall.setup_s"] = base.setupWall
	m["wall.ops_per_s"] = float64(base.ops) / base.meter.wall.Seconds()
	m["wall.op_ms_p50"] = percentile(msValues(base.opWall), 50)
	m["wall.op_ms_p95"] = percentile(msValues(base.opWall), 95)
	m["wall.sim_speed"] = base.simSeconds / base.meter.wall.Seconds()
	m["fleet_launch_ms_p95"] = p.fleetP95

	// Conservation checks.
	if p.launchesIssued != p.launchesRecorded {
		p.fail("launch conservation: issued %d launches, android recorded %d hot+cold", p.launchesIssued, p.launchesRecorded)
	}
	// moduleShares puts every sample in some cpu.* bucket. The sum over
	// the printed cpu.* metrics falls short of 100 only when a bucket is
	// missing from the catalog, or when the profile is empty.
	sum := 0.0
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "cpu.") {
			sum += shares[d.Name]
		}
	}
	if samples == 0 || math.Abs(sum-100) > 1e-6 {
		p.fail("printed cpu shares sum to %.9f%% over %d samples, want 100%%", sum, samples)
	}
	if cov := m["trace.span_coverage"]; cov < 1-spanCoverageBound || cov > 1+1e-9 {
		p.fail("top-level spans cover %.4f of the measured phase, want within %.2f of 1", cov, spanCoverageBound)
	}

	data, err := o.tr.chromeJSON(o.workload)
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(tracePath), 0o755); err == nil {
			err = os.WriteFile(tracePath, data, 0o644)
		}
	}
	if err != nil {
		return record{}, fmt.Errorf("write trace: %w", err)
	}
	p.notes = append(p.notes, "trace written to "+tracePath)
	rec := makeRecord(o, p, true, perLayer, m)
	rec.Spans = spanSummary(o.tr.stats())
	return rec, nil
}

// spanCoverageBound is how much of the measured phase may fall outside
// the top-level op spans.
const spanCoverageBound = 0.05

func makeRecord(o runOpts, p *pass, traced bool, defs []metricDef, m map[string]float64) record {
	p.failed = min(p.failed, p.ops)
	rec := record{
		Workload: o.workload, Seed: o.seed, Traced: traced,
		Fingerprint: readFingerprint(),
		Digests:     p.digests,
		Problems:    p.problems,
		Notes:       p.notes,
		Result: result{
			Correct:   len(p.problems) == 0 && p.failed == 0,
			Attempted: max(p.ops, 1),
			Failed:    p.failed,
			Metrics:   map[string]metricValue{},
		},
	}
	if traced {
		m["failed_frac"] = float64(p.failed) / float64(rec.Result.Attempted)
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return rec
}

// layerMetrics turns a traced pass into the per-layer metrics.
func layerMetrics(o runOpts, p *pass, shares map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range shares {
		m[k] = v
	}
	for k, v := range p.counts {
		m[k] = v
	}
	st := o.tr.stats()
	median := func(name string) float64 {
		if s := st[name]; s != nil {
			return ms(s.Median)
		}
		return 0
	}
	perSim := func(name string) float64 {
		if s := st[name]; s != nil && p.simBySpan[name] > 0 {
			return ms(s.Total) / p.simBySpan[name]
		}
		return 0
	}
	m["android.boot_ms"] = median("android.NewSystem")
	m["android.cold_launch_ms"] = median("android.Launch")
	m["android.switch_ms"] = median("android.SwitchTo")
	m["android.use_ms_per_sim_s"] = perSim("android.Use")
	m["android.idle_ms_per_sim_s"] = perSim("android.Idle")
	m["population.device_ms"] = median("population.SimulateDevice")
	m["population.merge_ms"] = median("population.Merge")
	for _, e := range sweepExperiments {
		m["experiments.cell_ms."+e] = median("experiments." + e)
	}

	cpuNS := float64(p.whole.cpu)
	perUnit := func(share, n float64) float64 {
		if n <= 0 {
			return 0
		}
		return share / 100 * cpuNS / n
	}
	m["gc.host_ns_per_object_traced"] = perUnit(shares["cpu.gc"], p.objectsTraced)
	m["heap.host_ns_per_alloc"] = perUnit(shares["cpu.heap"], p.objectsAllocated)
	m["vmem.host_ns_per_fault"] = perUnit(shares["cpu.vmem"]+shares["cpu.mem"], p.faults)
	m["go.gc_cycles"] = float64(p.whole.gcCycles)
	m["go.gc_pause_ms"] = ms(p.whole.gcPause)

	from, to := o.tr.since(p.meter.firstStart), o.tr.since(p.meter.lastStop)
	if covered := o.tr.topLevelWithin("op", from, to); p.meter.wall > 0 {
		m["trace.span_coverage"] = float64(covered) / float64(p.meter.wall)
	}
	return m
}

// meter accumulates wall time, process CPU time and Go allocation over
// one or more start/stop segments.
type meter struct {
	wall, cpu, gcPause   time.Duration
	alloc                uint64
	gcCycles             uint32
	firstStart, lastStop time.Time

	t0      time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	running bool
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = processCPU()
	m.t0 = time.Now()
	if m.firstStart.IsZero() {
		m.firstStart = m.t0
	}
	m.running = true
}

func (m *meter) stop() {
	if !m.running {
		return
	}
	now := time.Now()
	cpu := processCPU()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m.wall += now.Sub(m.t0)
	m.cpu += cpu - m.cpu0
	m.alloc += ms1.TotalAlloc - m.ms0.TotalAlloc
	m.gcCycles += ms1.NumGC - m.ms0.NumGC
	m.gcPause += time.Duration(ms1.PauseTotalNs - m.ms0.PauseTotalNs)
	m.lastStop = now
	m.running = false
}

// stamp is a reading of the wall clock and the process CPU clock.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), processCPU()} }

// addOp records one finished op that started at t0.
func (p *pass) addOp(t0 stamp) {
	t1 := now()
	p.opWall = append(p.opWall, t1.wall.Sub(t0.wall))
	p.opCPU = append(p.opCPU, t1.cpu-t0.cpu)
}

// setupClock times a workload's set-ups: from process start to the first
// one, plus the median of all of them.
type setupClock struct {
	first, cur stamp
	wall, cpu  []time.Duration
}

func (c *setupClock) begin() {
	c.cur = now()
	if c.first.wall.IsZero() {
		c.first = c.cur
	}
}

func (c *setupClock) end() {
	t := now()
	c.wall = append(c.wall, t.wall.Sub(c.cur.wall))
	c.cpu = append(c.cpu, t.cpu-c.cur.cpu)
}

// result stores the set-up times in p. The process CPU clock starts at
// process start, so the first set-up's CPU reading is the CPU spent
// before it.
func (c *setupClock) result(p *pass) {
	p.setupWall = c.first.wall.Sub(procStart).Seconds() + percentile(msValues(c.wall), 50)/1e3
	p.setupCPU = c.first.cpu.Seconds() + percentile(msValues(c.cpu), 50)/1e3
}

// processCPU is the CPU time (user + system) of every thread of the
// process since it started. On a virtual machine it leaves out time the
// hypervisor gave to other guests, which wall time does not.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msValues(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// percentile is the pct-th percentile of xs, interpolated linearly
// between the closest ranks (0 when empty).
func percentile(xs []float64, pct float64) float64 {
	var s metrics.Sample
	s.AddAll(xs...)
	return s.Percentile(pct)
}
