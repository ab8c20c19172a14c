package main

// The metric catalog: every metric the benchmark prints, with its unit,
// its better direction and — for per-layer metrics — which end-to-end
// metric it is expected to move on which workload. BENCHMARK.json lists
// the same names and units; a test keeps the two in step.

// metricDef describes one printed metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Moves names the end-to-end metrics and workloads a per-layer
	// metric should move ("op_ms_p50 on population"); empty for
	// end-to-end metrics.
	Moves string
}

// workloadDef records a workload and why the benchmark has it.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"hotlaunch", "the paper's 7.2 hot-launch protocol on flash under Android, Marvin and Fleet: fg ticks, bg GC, swap faults and the launch path do the work"},
	{"zram-swam", "the same protocol on zram under Swam and Fleet: compression, writeback and Swam kills use vmem differently than flash"},
	{"population", "short device lives under Android and Fleet: cold-launch heap building, Go GC and screen-off Idle dominate, few hot launches"},
	{"sweep", "quick fig13, fig15, extzram, extdepth and extadvice jobs through an in-process service: the only path through experiments, runner, service and snapshot"},
}

// endToEnd times are process CPU time, not wall time: on a shared
// virtual machine, wall time also counts the time the hypervisor gives to
// other guests, which swung identical runs by 30%. The wall-clock figures
// are per-layer metrics (wall.*) of the traced run. So is the simulated
// fleet_launch_ms_p95: on zram-swam the p95 falls in a sparse tail (6-13%
// of some 125 Fleet hot launches lie at 200-570 ms, the rest near
// 120-165 ms), so from one seed to the next it moved by more than the
// largest bound (IQR/median 0.35 over ten seeds, with a Harrell-Davis
// estimate as with linear interpolation).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "op_cpu_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "op_cpu_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "sim_s_per_cpu_s", Unit: "sim_s/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "fleet_launch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet_cached_apps", Unit: "count", Better: "higher"},
}

// modules are the fleetsim/internal packages CPU samples are attributed
// to; a sample whose innermost fleetsim/internal frame is in a package
// not listed here counts as cpu.other, one with no such frame as
// cpu.runtime.
var modules = []string{
	"android", "apps", "buildinfo", "cardtable", "core", "experiments",
	"faults", "fsio", "gc", "heap", "marvin", "mem", "metrics",
	"population", "runner", "service", "simclock", "snapshot",
	"telemetry", "trace", "units", "vmem", "xrand",
}

// sweepExperiments are the experiments one sweep cycle submits, one job
// each, in this order.
var sweepExperiments = []string{"fig13", "fig15", "extzram", "extdepth", "extadvice"}

func cpuMoves(m string) string {
	switch m {
	case "apps", "xrand":
		return "sim_s_per_cpu_s, op_cpu_ms_p50 on hotlaunch"
	case "heap":
		return "op_cpu_ms_p50, alloc_mb_per_op, peak_rss_mb on population"
	case "population", "metrics":
		return "op_cpu_ms_p50 on population"
	case "gc":
		return "op_cpu_ms_p50 on hotlaunch"
	case "vmem", "mem":
		return "op_cpu_ms_p50 on zram-swam"
	case "core", "marvin", "simclock", "android", "cardtable":
		return "sim_s_per_cpu_s on hotlaunch"
	case "experiments", "runner":
		return "cpu_ms_per_op, op_cpu_ms_p50 on sweep"
	case "service", "snapshot", "telemetry", "fsio":
		return "op_cpu_ms_p50 on sweep, by well under 1%"
	case "runtime":
		return "alloc_mb_per_op, peak_rss_mb, op_cpu_ms_p50 on population"
	}
	return "op_cpu_ms_p50 on every workload"
}

// perLayer is built once from the fixed list below plus one cpu.* share
// per module and one cell timing per sweep experiment.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"android.boot_ms", "ms", "lower", "setup_s everywhere; op_cpu_ms_p50 on population"},
		{"android.cold_launch_ms", "ms", "lower", "setup_s on hotlaunch; op_cpu_ms_p50, op_cpu_ms_p95 on population and zram-swam"},
		{"android.switch_ms", "ms", "lower", "op_cpu_ms_p95 on hotlaunch"},
		{"android.use_ms_per_sim_s", "ms/sim_s", "lower", "sim_s_per_cpu_s on hotlaunch and zram-swam"},
		{"android.idle_ms_per_sim_s", "ms/sim_s", "lower", "op_cpu_ms_p50 on population (read on the hotlaunch and zram-swam idle tails)"},
		{"android.hot_launches", "count", "higher", "fleet_cached_apps on hotlaunch, zram-swam, population"},
		{"android.cold_launches", "count", "lower", "fleet_cached_apps on hotlaunch, zram-swam, population"},
		{"android.kills", "count", "lower", "fleet_cached_apps on hotlaunch, zram-swam, population"},
		{"android.swam_kills", "count", "lower", "fleet_cached_apps on zram-swam"},
		{"android.alive_mean", "count", "higher", "fleet_cached_apps on hotlaunch, zram-swam"},
		{"android.fleet_speedup_p50", "x", "higher", "fidelity only: the paper reports 1.59x on hotlaunch"},
		{"heap.objects_allocated", "count", "lower", "op_cpu_ms_p50, alloc_mb_per_op, peak_rss_mb on population (read on hotlaunch and zram-swam)"},
		{"heap.host_ns_per_alloc", "ns", "lower", "op_cpu_ms_p50, alloc_mb_per_op on population (read on hotlaunch and zram-swam)"},
		{"gc.collections", "count", "lower", "op_cpu_ms_p50 on hotlaunch"},
		{"gc.objects_traced", "count", "lower", "op_cpu_ms_p50 on hotlaunch"},
		{"gc.host_ns_per_object_traced", "ns", "lower", "op_cpu_ms_p50 on hotlaunch"},
		{"gc.bytes_copied", "bytes", "lower", "fleet_launch_ms_p50 and the per-layer fleet_launch_ms_p95 on hotlaunch"},
		{"gc.pause_ms", "ms", "lower", "fleet_launch_ms_p50 and the per-layer fleet_launch_ms_p95 on hotlaunch"},
		{"gc.fault_stall_ms", "ms", "lower", "fleet_launch_ms_p50 and the per-layer fleet_launch_ms_p95 on hotlaunch"},
		{"vmem.host_ns_per_fault", "ns", "lower", "op_cpu_ms_p50 on zram-swam"},
		{"vmem.major_faults", "count", "lower", "fleet_launch_ms_p50, fleet_launch_ms_p95 on hotlaunch"},
		{"vmem.swap_ins", "count", "lower", "fleet_launch_ms_p50, fleet_launch_ms_p95 on hotlaunch"},
		{"vmem.swap_outs", "count", "lower", "fleet_launch_ms_p50, fleet_launch_ms_p95 on hotlaunch"},
		{"vmem.refault_frac", "frac", "lower", "fleet_launch_ms_p50, fleet_launch_ms_p95 on hotlaunch"},
		{"vmem.fault_stall_ms", "ms", "lower", "fleet_launch_ms_p50, fleet_launch_ms_p95 on hotlaunch"},
		{"vmem.direct_reclaim_ms", "ms", "lower", "fleet_launch_ms_p50, fleet_launch_ms_p95 on hotlaunch"},
		{"zram.writebacks", "count", "lower", "fleet_launch_ms_p50 and the per-layer fleet_launch_ms_p95 on zram-swam (0 on hotlaunch)"},
		{"zram.fallthroughs", "count", "lower", "fleet_launch_ms_p50 and the per-layer fleet_launch_ms_p95 on zram-swam (0 on hotlaunch)"},
		{"zram.full_rejects", "count", "lower", "fleet_launch_ms_p50 and the per-layer fleet_launch_ms_p95 on zram-swam (0 on hotlaunch)"},
		{"zram.compress_cpu_ms", "ms", "lower", "fleet_launch_ms_p50 and the per-layer fleet_launch_ms_p95 on zram-swam (0 on hotlaunch)"},
		{"zram.decompress_cpu_ms", "ms", "lower", "fleet_launch_ms_p50 and the per-layer fleet_launch_ms_p95 on zram-swam (0 on hotlaunch)"},
		{"go.gc_cycles", "count", "lower", "alloc_mb_per_op, peak_rss_mb, op_cpu_ms_p50 on population"},
		{"go.gc_pause_ms", "ms", "lower", "alloc_mb_per_op, peak_rss_mb, op_cpu_ms_p50 on population"},
		{"population.device_ms", "ms", "lower", "op_cpu_ms_p50 on population"},
		{"population.merge_ms", "ms", "lower", "op_cpu_ms_p50 on population"},
		{"service.queue_wait_ms", "ms", "lower", "wall.op_ms_p50 on sweep, by well under 1%"},
		{"service.journal_fsync_ms", "ms", "lower", "wall.op_ms_p50 on sweep, by well under 1%"},
		{"service.job_overhead_ms", "ms", "lower", "wall.op_ms_p50 on sweep, by well under 1%"},
		{"wall.setup_s", "s", "lower", "none: setup_s in wall time, untraced pass"},
		{"wall.ops_per_s", "1/s", "higher", "none: ops per wall second, untraced pass"},
		{"wall.op_ms_p50", "ms", "lower", "none: wall time per op, median, untraced pass"},
		{"wall.op_ms_p95", "ms", "lower", "none: wall time per op, p95, untraced pass"},
		{"wall.sim_speed", "sim_s/s", "higher", "none: simulated seconds per wall second, untraced pass"},
		{"trace.overhead_frac", "frac", "lower", "none: traced cpu_ms_per_op over untraced, minus 1"},
		{"trace.span_coverage", "frac", "higher", "none: top-level span time over the measured phase"},
		{"fleet_launch_ms_p95", "ms", "lower", "none: simulated Fleet hot-launch latency, p95, traced pass"},
		{"failed_frac", "frac", "lower", "every end-to-end metric on every workload"},
	}
	for _, e := range sweepExperiments {
		defs = append(defs, metricDef{"experiments.cell_ms." + e, "ms", "lower", "cpu_ms_per_op, op_cpu_ms_p50 on sweep"})
	}
	for _, m := range append(append([]string{}, modules...), "runtime", "other") {
		defs = append(defs, metricDef{"cpu." + m, "%", "lower", cpuMoves(m)})
	}
	return defs
}
