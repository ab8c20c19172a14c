package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"fleetsim/internal/telemetry"
	"fleetsim/internal/trace"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it moves", d.Name)
		}
	}
	for _, w := range workloadDefs {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the catalog in
// step: the same workloads with the same reasons, and the same metrics
// with the same units and directions.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalog %d", len(bf.Workloads), len(workloadDefs))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), catalog %q (%q)", i, w.Name, w.Why, workloadDefs[i].Name, workloadDefs[i].Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalog %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalog %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalog %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalog %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload briefly, traced (which includes an
// untraced pass), and checks that the run is correct, prints every
// per-layer metric and matches the reference digests at seed 1.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	chdirTemp(t)
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			rec, err := tracedRun(runOpts{workload: w.Name, seed: 1, seconds: 0.1, refs: builtinRefs()}, "trace.json")
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 {
				t.Fatalf("run not correct: %v", rec.Problems)
			}
			for _, d := range perLayer {
				if _, ok := rec.Result.Metrics[d.Name]; !ok {
					t.Errorf("metric %s missing", d.Name)
				}
			}
			if got := rec.Result.Metrics["failed_frac"].Value; got != 0 {
				t.Errorf("failed_frac = %v", got)
			}
			data, err := os.ReadFile("trace.json")
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.ValidateChrome(data); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestWrongReferenceFailsOps corrupts one reference digest and expects
// the ops behind it to count as failed.
func TestWrongReferenceFailsOps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the population workload")
	}
	refs := builtinRefs()
	want := refs.Digests["population"]["1"]
	if want == nil {
		t.Fatal("no population reference digests for seed 1")
	}
	bad := refSet{Digests: map[string]map[string]map[string]string{
		"population": {"1": {"agg": "0000000000000000"}},
	}}
	chdirTemp(t)
	rec, err := untracedRun(runOpts{workload: "population", seed: 1, seconds: 0.1, refs: bad})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result.Correct || rec.Result.Failed != popPrefix {
		t.Fatalf("correct=%v failed=%d, want false and %d", rec.Result.Correct, rec.Result.Failed, popPrefix)
	}
	if rec.Digests["agg"] != want["agg"] {
		t.Fatalf("agg digest %s, reference %s", rec.Digests["agg"], want["agg"])
	}
}

// chdirTemp runs the rest of the test in a fresh directory, where the
// benchmark writes its journal and trace files.
func chdirTemp(t *testing.T) {
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

func TestCheckRefsCountsMismatchedOps(t *testing.T) {
	p := newPass()
	p.ops = 300
	p.digests = map[string]string{"Fleet": "a", "Android": "b"}
	p.digestOps = map[string]int64{"Fleet": 68, "Android": 68}
	refs := refSet{Digests: map[string]map[string]map[string]string{
		"hotlaunch": {"7": {"Fleet": "a", "Android": "x", "Marvin": "y"}},
	}}
	checkRefs(refs, "hotlaunch", 7, p)
	// Android mismatches (68 ops); Marvin is missing, so all ops fail.
	if p.failed != 68+300 || len(p.problems) != 2 {
		t.Fatalf("failed=%d problems=%v", p.failed, p.problems)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fleetsim/internal/heap.(*Heap).Alloc":         "heap",
		"fleetsim/internal/gc.Trace":                   "gc",
		"fleetsim/internal/telemetry/slogx.New":        "telemetry",
		"runtime.mallocgc":                             "",
		"main.runHotLaunch":                            "",
		"fleetsim/internal/android.(*System).SwitchTo": "android",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 0, Start: 80, End: 90},
	}}
	st := tr.stats()
	if got := st["op"].Self; got != time.Duration(100-50-10) {
		t.Fatalf("op self = %d, want 40", got)
	}
	if got := tr.topLevelWithin("op", 0, 100); got != 100 {
		t.Fatalf("top-level = %d", got)
	}
}

func TestHistQuantile(t *testing.T) {
	h := telemetry.NewRegistry().Histogram("h", "", []float64{10, 20})
	for _, x := range []float64{5, 15, 15, 15} {
		h.Observe(x)
	}
	if got := histQuantile(h, 0.5); got != 10+10*(2-1)/3.0 {
		t.Fatalf("p50 = %v", got)
	}
}

func TestGuardTurnsPanicIntoError(t *testing.T) {
	if err := guard(func() {}); err != nil {
		t.Fatalf("guard(no panic) = %v", err)
	}
	err := guard(func() { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("guard(panic) = %v", err)
	}
	tr := newTracer()
	top := tr.begin("op", 0)
	tr.begin("inner", 0)
	tr.abort(top)
	if len(tr.open) != 0 || tr.spans[0].End < tr.spans[0].Start {
		t.Fatalf("abort left %d spans open", len(tr.open))
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := record{Workload: "sweep", Fingerprint: fingerprint{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", Go: "go1.24.0", Commit: "a"}}
	b := a
	b.Fingerprint.Commit = "b"
	if err := comparable(a, b); err != nil {
		t.Fatalf("same host, other commit: %v", err)
	}
	b.Fingerprint.CPUModel = "y"
	if err := comparable(a, b); err == nil {
		t.Fatal("records from different CPU models compared")
	}
}
