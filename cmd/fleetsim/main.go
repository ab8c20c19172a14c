// Command fleetsim reproduces the paper's tables and figures from the
// command line:
//
//	fleetsim [flags] <experiment> [experiment...]
//	fleetsim all
//
// Experiments: fig2 fig3 fig4 fig5 fig6 fig7 fig11a fig11b fig11c fig12a
// fig12b fig13 fig14 fig15 fig16 tab1 tab2 tab3 sec73 sec74, plus the
// fault-injection chaos harness (`fleetsim chaos -seeds N`) and the
// device-fleet campaign (`fleetsim population -devices N -tiers ...`).
//
// Experiments run concurrently on a worker pool (-parallel; default
// GOMAXPROCS), and each experiment's internal policy legs fan out on the
// same pool. Output is printed in table order and is bitwise-identical at
// every parallelism level, including -parallel 1 (fully serial).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fleetsim/fleet"
	"fleetsim/internal/buildinfo"
)

// chaosFailed latches a chaos-harness failure, legFailed a panicked or
// timed-out experiment leg (experiments may run on worker goroutines), so
// main can exit non-zero.
var (
	chaosFailed atomic.Bool
	legFailed   atomic.Bool
)

// interrupted flips on the first SIGINT/SIGTERM; campaigns poll it and
// stop at the next cell boundary, flushing checkpoints on the way out.
var interrupted atomic.Bool

var (
	scale      = flag.Int64("scale", 32, "device scale divisor (1 = full Pixel 3; larger = faster runs)")
	rounds     = flag.Int("rounds", 10, "launch rounds per hot-launch experiment (paper: 20)")
	seed       = flag.Uint64("seed", 1, "simulation seed")
	quick      = flag.Bool("quick", false, "reduced rounds for a fast pass")
	parallel   = flag.Int("parallel", 0, "worker count for experiment legs (0 = GOMAXPROCS, 1 = serial)")
	seeds      = flag.Int("seeds", 3, "seeds per fault profile for the chaos harness")
	timeout    = flag.Duration("timeout", 0, "wall-clock deadline per experiment and per chaos cell (0 = none)")
	retries    = flag.Int("retries", 1, "retry budget for transient chaos-cell failures")
	backend    = flag.String("backend", "", "swap backend for all experiments: flash (default) or zram")
	devices    = flag.Int("devices", 0, "fleet size for the population campaign (0 = campaign default)")
	tiers      = flag.String("tiers", "", "population tier mix as name:weight,... (e.g. low:3,mid:5,high:2; empty = default mix)")
	policies   = flag.String("policies", "", "population policy list, comma-separated (e.g. Android,Fleet; empty = all)")
	ckptDir    = flag.String("checkpoint-dir", "", "directory for campaign checkpoint journals and divergence reports")
	resume     = flag.Bool("resume", false, "resume checkpointed campaigns in -checkpoint-dir instead of starting over")
	traceOut   = flag.String("trace-out", "", "write the trace experiment's event log as Chrome trace-event JSON (Perfetto-loadable) to this file")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	version    = flag.Bool("version", false, "print the build stamp and exit")
)

func params() fleet.Params {
	p := fleet.DefaultParams()
	p.Scale = *scale
	p.Rounds = *rounds
	p.Seed = *seed
	p.Devices = *devices
	p.Tiers = *tiers
	p.Policies = *policies
	p.Backend = *backend
	if *quick {
		p = p.Quick()
	}
	return p
}

// experiment runners return their rendered output instead of printing so
// that `all` can execute them concurrently and still emit table order.
// The paper experiments come from the shared registry
// (fleet.Experiments()); only the frontend-specific entries — the chaos
// campaign (flags, checkpoint store) and the systrace dump (stderr) — are
// defined here. optIn entries are excluded from `all`.
type experiment struct {
	name  string
	desc  string
	optIn bool
	run   func(p fleet.Params) string
}

// table is built in main from the registry plus the local entries below.
var table []experiment

var localEntries = []experiment{
	{"chaos", "fault-injection chaos harness (4 profiles + zram/Swam variants x -seeds seeds, determinism + invariants)", true, func(p fleet.Params) string {
		opts := fleet.ChaosOpts{
			Seeds:       *seeds,
			Deadline:    *timeout,
			Retries:     *retries,
			Interrupted: interrupted.Load,
		}
		if *ckptDir != "" {
			st, err := fleet.OpenCheckpoint(filepath.Join(*ckptDir, "chaos.jsonl"), fleet.ChaosCampaignKey(p))
			if err != nil {
				chaosFailed.Store(true)
				return fmt.Sprintf("fleetsim: chaos checkpoint: %v\n", err)
			}
			defer st.Close()
			opts.Store = st
		}
		rep := fleet.ChaosSupervised(p, opts)
		// An interrupted campaign is incomplete, not failed: the partial
		// summary prints, the checkpoint holds the finished cells, and a
		// -resume rerun completes the rest.
		if !rep.Passed() && rep.Skipped == 0 {
			chaosFailed.Store(true)
		}
		writeDivergenceReports(rep)
		return fleet.FormatChaosReport(rep)
	}},
	{"trace", "dump a systrace-style event log of a Fleet scenario (CSV; -trace-out adds Perfetto JSON)", true, func(p fleet.Params) string {
		// The canonical capture shared with fleetd's GET /v1/jobs/{id}/trace:
		// six commercial apps launched, used, and switched through twice.
		log := fleet.CaptureTrace(p, fleet.PolicyFleet)
		fmt.Fprintf(os.Stderr, "%d events\n", log.Len())
		if *traceOut != "" {
			data, err := log.ChromeJSON()
			if err == nil {
				err = os.WriteFile(*traceOut, data, 0o644)
			}
			if err != nil {
				legFailed.Store(true)
				fmt.Fprintf(os.Stderr, "fleetsim: trace-out: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "fleetsim: wrote Chrome trace %s (load in Perfetto or chrome://tracing)\n", *traceOut)
			}
		}
		return log.CSV()
	}},
}

func main() {
	// Registered first so it runs last: by the time the exitCode panic
	// reaches this recover, the deferred checkpoint Closes have flushed.
	defer func() {
		if r := recover(); r != nil {
			code, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			os.Exit(int(code))
		}
	}()
	// The shared registry provides every paper experiment; chaos and trace
	// are frontend-specific and appended here.
	for _, s := range fleet.Experiments() {
		table = append(table, experiment{name: s.Name, desc: s.Desc, optIn: s.CSV || s.OptIn, run: s.Run})
	}
	table = append(table, localEntries...)

	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fleetsim [flags] <experiment>...\n\nexperiments:\n")
		for _, e := range table {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
		}
		fmt.Fprintf(os.Stderr, "  %-8s %s\n\nflags:\n", "all", "run everything except the CSV dumps and the opt-in campaigns (chaos, population)")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Read().String("fleetsim"))
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	fleet.SetParallelism(*parallel)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// Accept flags after experiment names (`fleetsim chaos -seeds 5
	// -checkpoint-dir ckpt`): the flag package stops at the first non-flag
	// argument, so re-parse the remainder whenever one appears.
	want := map[string]bool{}
	rest := flag.Args()
	for len(rest) > 0 {
		if strings.HasPrefix(rest[0], "-") {
			flag.CommandLine.Parse(rest) // ExitOnError: bad flags abort here
			rest = flag.Args()
			continue
		}
		want[strings.ToLower(rest[0])] = true
		rest = rest[1:]
	}
	if _, ok := fleet.ParseBackend(*backend); !ok {
		fmt.Fprintf(os.Stderr, "fleetsim: unknown swap backend %q\nvalid backends: %s\n",
			*backend, strings.Join(fleet.BackendNames(), " "))
		os.Exit(2)
	}
	p := params()
	fleet.SetParallelism(*parallel) // again: -parallel may have come trailing
	// The population campaign shares the SIGINT latch and per-cell deadline
	// with the chaos harness: interrupt stops it at the next device-range
	// boundary with checkpoints flushed.
	fleet.SetPopulationInterrupt(interrupted.Load)
	fleet.SetPopulationDeadline(*timeout)

	// First SIGINT/SIGTERM: stop campaigns at the next cell boundary,
	// flush checkpoints, print the partial summary, exit 130. Second
	// signal: abort immediately.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "fleetsim: interrupted — finishing in-flight cells and checkpointing (interrupt again to abort)")
		<-sigc
		fmt.Fprintln(os.Stderr, "fleetsim: aborted")
		os.Exit(130)
	}()

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
			os.Exit(1)
		}
		if !*resume {
			// Fresh campaign: drop stale journals and bisection reports so
			// old cells cannot leak into the new run.
			for _, pat := range []string{"chaos.jsonl", "sweep.jsonl", "divergence-*.txt"} {
				matches, _ := filepath.Glob(filepath.Join(*ckptDir, pat))
				for _, m := range matches {
					os.Remove(m)
				}
			}
		}
		st, err := fleet.OpenCheckpoint(filepath.Join(*ckptDir, "sweep.jsonl"), fleet.SweepCampaignKey(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		fleet.SetSweepCheckpointStore(st)
	}
	// Reject unknown names up front, listing the registry instead of a
	// hand-maintained usage string.
	known := map[string]bool{"all": true}
	var names []string
	for _, e := range table {
		known[e.name] = true
		names = append(names, e.name)
	}
	for name := range want {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "fleetsim: no such experiment %q\nvalid experiments: all %s\n",
				name, strings.Join(names, " "))
			os.Exit(2)
		}
	}
	var selected []experiment
	for _, e := range table {
		if want["all"] && e.optIn {
			continue // CSV dumps and the chaos harness are opt-in
		}
		if !want["all"] && !want[e.name] {
			continue
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: no experiment selected %v\n", flag.Args())
		os.Exit(2)
	}

	// Whole experiments are pool tasks too: with the worker pool shared by
	// their internal legs, output stays in table order while the heavy
	// studies overlap. Timing lines report each experiment's own span.
	type outcome struct {
		text string
		took time.Duration
		legs *fleet.LegCounts
	}
	// Each experiment leg runs supervised: a panic or a -timeout overrun
	// fails that experiment (reported with its stack) without aborting the
	// others.
	run := func(e experiment) outcome {
		start := time.Now()
		legs := &fleet.LegCounts{}
		texts, errs := fleet.SupervisedMap([]experiment{e}, fleet.SupervisePolicy{Deadline: *timeout},
			func(_ int, e experiment) (string, error) { return e.run(p.WithLegCounts(legs)), nil })
		o := outcome{texts[0], time.Since(start).Round(time.Millisecond), legs}
		if len(errs) > 0 {
			legFailed.Store(true)
			le := errs[0]
			o.text = fmt.Sprintf("%s FAILED: %v\n", e.name, le.Err)
			if le.Stack != "" {
				for _, line := range strings.Split(strings.TrimRight(le.Stack, "\n"), "\n") {
					o.text += "    " + line + "\n"
				}
			}
		}
		return o
	}
	if fleet.Parallelism() == 1 || len(selected) == 1 {
		for _, e := range selected {
			o := run(e)
			fmt.Print(o.text)
			fmt.Printf("  [%s took %v%s]\n\n", e.name, o.took, legNote(o.legs))
		}
	} else {
		results := make([]chan outcome, len(selected))
		for i := range results {
			results[i] = make(chan outcome, 1)
		}
		// At most Parallelism() experiments in flight at once; their
		// internal legs fan out on the same process-wide budget, so this
		// only bounds oversubscription, it cannot deadlock.
		sem := make(chan struct{}, fleet.Parallelism())
		for i, e := range selected {
			i, e := i, e
			go func() {
				sem <- struct{}{}
				defer func() { <-sem }()
				results[i] <- run(e)
			}()
		}
		for i, e := range selected {
			o := <-results[i]
			fmt.Print(o.text)
			fmt.Printf("  [%s took %v%s]\n\n", e.name, o.took, legNote(o.legs))
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
			os.Exit(1)
		}
	}
	if interrupted.Load() {
		fleet.SetSweepCheckpointStore(nil) // flushed by the deferred Close
		fmt.Fprintln(os.Stderr, "fleetsim: interrupted; partial results above — rerun with -resume to complete")
		exitAfterDefers(130)
	}
	if chaosFailed.Load() {
		fmt.Fprintln(os.Stderr, "fleetsim: chaos harness detected invariant violations, nondeterminism or failed cells")
		os.Exit(1)
	}
	if legFailed.Load() {
		fmt.Fprintln(os.Stderr, "fleetsim: one or more experiment legs panicked or exceeded -timeout")
		os.Exit(1)
	}
}

// exitAfterDefers exits with the given code via a rethrown panic so main's
// deferred checkpoint Closes still run (os.Exit would skip them).
func exitAfterDefers(code int) {
	panic(exitCode(code))
}

type exitCode int

// writeDivergenceReports writes each divergent cell's full bisection report
// into -checkpoint-dir as divergence-<profile>-<seed>.txt.
func writeDivergenceReports(rep fleet.ChaosReport) {
	if *ckptDir == "" {
		return
	}
	for _, r := range rep.Rows {
		if r.Divergence == nil || r.Divergence.Report == "" {
			continue
		}
		path := filepath.Join(*ckptDir, fmt.Sprintf("divergence-%s-%d.txt", r.Profile, r.Seed))
		if err := os.WriteFile(path, []byte(r.Divergence.Report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
			continue
		}
		fmt.Fprintf(os.Stderr, "fleetsim: wrote divergence report %s\n", path)
	}
}

// legNote renders how an experiment's §7.2 legs were answered for its
// timing line ("" when it has none): ", 3/3 legs reused", plus the legs a
// checkpoint store restored.
func legNote(c *fleet.LegCounts) string {
	run, reused, restored := c.Run.Load(), c.Reused.Load(), c.Restored.Load()
	if run+reused+restored == 0 {
		return ""
	}
	note := fmt.Sprintf(", %d/%d legs reused", reused, run+reused+restored)
	if restored > 0 {
		note += fmt.Sprintf(", %d restored", restored)
	}
	return note
}
