package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/faults"
	"fleetsim/internal/metrics"
	"fleetsim/internal/runner"
	"fleetsim/internal/telemetry"
)

// resetLegs empties the process-wide leg memo, so the next experiment
// simulates every leg afresh. Tests call it only while no leg is in
// flight.
func resetLegs() { legCache = newLegMemo(legMemoCap) }

// resident reports how many finished legs the memo holds.
func (m *legMemo) resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// simExposition is reg's Prometheus exposition without the leg-executor
// family, whose run/reused/restored split is the one thing that is meant
// to differ between a fresh and a reused leg.
func simExposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		if !strings.Contains(line, "fleetsim_legs_total") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

// legsTotal reads one result series of the leg-executor counter.
func legsTotal(reg *telemetry.Registry, result legResult) int64 {
	return reg.Counter("fleetsim_legs_total",
		"Hot-launch protocol legs by how the leg executor answered them.", "result", string(result)).Value()
}

// sweepExperiments are the registry experiments that share §7.2 legs: 17
// legs, 10 of them distinct.
var sweepExperiments = []string{"fig13", "fig15", "extzram", "extdepth", "extadvice"}

// sweepPass runs the sweep experiments at detParams(seed) with a fresh sim
// registry and returns the rendered output and the registry. With
// isolated, every experiment starts from an empty leg memo (nothing is
// reused); otherwise they share one.
func sweepPass(t *testing.T, seed uint64, isolated bool) (string, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	telemetry.SetSimRegistry(reg)
	defer telemetry.SetSimRegistry(nil)
	resetLegs()
	var out strings.Builder
	for _, name := range sweepExperiments {
		if isolated {
			resetLegs()
		}
		out.WriteString(ByName(name).Run(detParams(seed)))
	}
	return out.String(), reg
}

// TestLegReuseInvisible is the executor's contract: running the sweep
// experiments with a shared leg memo must render the same bytes and
// publish the same sim telemetry as running each with an empty memo, while
// simulating only the 10 distinct legs. The shared pass runs serially and
// at parallelism 4, where concurrent requests for one leg wait for a
// single computation. Concurrent legs publish in a varying order (with or
// without reuse), which moves series registration order and the float
// rounding of histogram sums, so the parallel pass is compared over sorted
// lines with sums to 1e-9. Under -race only seed 1's parallel pass runs.
func TestLegReuseInvisible(t *testing.T) {
	defer runner.SetParallelism(0)
	seeds, pars := []uint64{1, 7}, []int{1, 4}
	if raceEnabled {
		seeds, pars = seeds[:1], pars[1:]
	}
	for _, seed := range seeds {
		runner.SetParallelism(1)
		freshOut, freshReg := sweepPass(t, seed, true)
		if run, reused := legsTotal(freshReg, legRun), legsTotal(freshReg, legReused); run != 17 || reused != 0 {
			t.Errorf("seed %d: isolated pass ran %d and reused %d legs, want 17 and 0", seed, run, reused)
		}
		fe := simExposition(t, freshReg)
		for _, par := range pars {
			runner.SetParallelism(par)
			sharedOut, sharedReg := sweepPass(t, seed, false)
			tag := fmt.Sprintf("seed %d, parallel %d", seed, par)
			if freshOut != sharedOut {
				t.Errorf("%s: reused legs changed the rendered output:\nfresh:\n%s\nshared:\n%s", tag, freshOut, sharedOut)
			}
			se := simExposition(t, sharedReg)
			if par == 1 && fe != se {
				t.Errorf("%s: reused legs changed the sim telemetry:\nfresh:\n%s\nshared:\n%s", tag, fe, se)
			}
			if par > 1 {
				if err := sameExposition(fe, se); err != nil {
					t.Errorf("%s: reused legs changed the sim telemetry: %v", tag, err)
				}
			}
			if run, reused := legsTotal(sharedReg, legRun), legsTotal(sharedReg, legReused); run != 10 || reused != 7 {
				t.Errorf("%s: shared pass ran %d and reused %d legs, want 10 and 7", tag, run, reused)
			}
		}
	}
}

// sameExposition compares two expositions line by line after sorting:
// every line must match exactly except histogram _sum values, which must
// agree to a relative 1e-9.
func sameExposition(a, b string) error {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	sort.Strings(al)
	sort.Strings(bl)
	if len(al) != len(bl) {
		return fmt.Errorf("%d lines vs %d", len(al), len(bl))
	}
	for i := range al {
		if al[i] == bl[i] {
			continue
		}
		an, av, aok := strings.Cut(al[i], " ")
		bn, bv, bok := strings.Cut(bl[i], " ")
		if !aok || !bok || an != bn || !strings.Contains(strings.SplitN(an, "{", 2)[0], "_sum") {
			return fmt.Errorf("line differs:\n  %s\n  %s", al[i], bl[i])
		}
		x, errA := strconv.ParseFloat(av, 64)
		y, errB := strconv.ParseFloat(bv, 64)
		if errA != nil || errB != nil || math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
			return fmt.Errorf("sum differs:\n  %s\n  %s", al[i], bl[i])
		}
	}
	return nil
}

// TestLegHitsAreCopies pins the copy on hit: a reader that sorts or
// extends its samples (Percentile sorts in place) must not change what the
// next reader of the same leg sees, which is the insertion order the leg
// recorded.
func TestLegHitsAreCopies(t *testing.T) {
	m := newLegMemo(4)
	leg := func() (*legSummary, legResult) {
		s := &metrics.Sample{}
		s.AddAll(3, 1, 2)
		return &legSummary{All: map[string]*metrics.Sample{"app": s}}, legRun
	}
	for i := 0; i < 3; i++ {
		ls, _ := m.do("k", leg)
		got, err := json.Marshal(ls.All["app"])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "[3,1,2]" {
			t.Fatalf("read %d saw %s, want the recorded order [3,1,2]", i, got)
		}
		ls.All["app"].Percentile(50)
		ls.All["app"].Add(100)
	}
}

// TestLegKeyCoversConfig perturbs every exported leaf of SystemConfig —
// device and swap backend, Fleet, Swam and the fault profile included —
// and requires each perturbation to change the leg key, so two different
// legs can never share one. Field kinds a perturbation cannot be defined
// for (unexported, func, chan, map, interface, slices) fail the walk: a
// future config field of such a kind must be keyed explicitly first.
func TestLegKeyCoversConfig(t *testing.T) {
	p := detParams(1)
	pop, measured := []string{"Twitter", "Line", "bgservice-0"}, []string{"Twitter"}
	base := systemConfig(p, android.PolicyFleet)
	base.Faults = &faults.Profile{}
	baseKey := legKey(p, pop, measured, base)

	var leaves [][]int
	var walk func(typ reflect.Type, path []int, name string)
	walk = func(typ reflect.Type, path []int, name string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: the JSON leg key cannot see it", name, f.Name)
					continue
				}
				walk(f.Type, append(append([]int(nil), path...), i), name+"."+f.Name)
			}
		case reflect.Pointer:
			walk(typ.Elem(), path, name)
		case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			leaves = append(leaves, path)
		default:
			t.Errorf("%s has kind %s: extend legKey and this walk before adding it", name, typ.Kind())
		}
	}
	walk(reflect.TypeOf(base), nil, "SystemConfig")
	if len(leaves) < 40 {
		t.Fatalf("walk found only %d leaves", len(leaves))
	}

	for _, path := range leaves {
		cfg := base
		fp := *base.Faults
		cfg.Faults = &fp
		v := reflect.ValueOf(&cfg).Elem()
		name := "SystemConfig"
		for _, i := range path {
			if v.Kind() == reflect.Pointer {
				v = v.Elem()
			}
			name += "." + v.Type().Field(i).Name
			v = v.Field(i)
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float()*2 + 1)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		default:
			v.SetUint(v.Uint() + 1)
		}
		if legKey(p, pop, measured, cfg) == baseKey {
			t.Errorf("perturbing %s does not change the leg key", name)
		}
	}

	// The pointer itself, and the non-config inputs, are keyed too.
	noFaults := base
	noFaults.Faults = nil
	others := map[string]func() string{
		"nil Faults":  func() string { return legKey(p, pop, measured, noFaults) },
		"Rounds":      func() string { q := p; q.Rounds++; return legKey(q, pop, measured, base) },
		"UseTime":     func() string { q := p; q.UseTime += time.Millisecond; return legKey(q, pop, measured, base) },
		"Params.Seed": func() string { q := p; q.Seed++; return legKey(q, pop, measured, base) },
		"Scale":       func() string { q := p; q.Scale++; return legKey(q, pop, measured, base) },
		"population":  func() string { return legKey(p, pop[:2], measured, base) },
		"measured":    func() string { return legKey(p, pop, pop[:2], base) },
	}
	for name, key := range others {
		if key() == baseKey {
			t.Errorf("changing %s does not change the leg key", name)
		}
	}
	if legKey(p, pop, []string{"Line", "Twitter"}, base) != legKey(p, pop, []string{"Twitter", "Line"}, base) {
		t.Error("the measured set's order changes the leg key")
	}
}

// TestLegPanicReleasesKey injects a panicking leg under the supervised
// runner while a second caller waits for the same key: the panic must be
// reported, nothing may be cached, and the waiter must run the leg itself
// rather than hang.
func TestLegPanicReleasesKey(t *testing.T) {
	m := newLegMemo(4)
	entered, release := make(chan struct{}), make(chan struct{})
	failed := make(chan []*runner.LegError, 1)
	go func() {
		_, errs := runner.SupervisedMap([]int{0}, runner.Policy{}, func(int, int) (int, error) {
			m.do("k", func() (*legSummary, legResult) {
				close(entered)
				<-release
				panic("injected leg failure")
			})
			return 0, nil
		})
		failed <- errs
	}()
	<-entered
	waiter := make(chan legResult, 1)
	go func() {
		ls, how := m.do("k", func() (*legSummary, legResult) { return &legSummary{Kills: 7}, legRun })
		if ls.Kills != 7 {
			how = "wrong summary"
		}
		waiter <- how
	}()
	// Give the second caller time to block on the in-flight entry; if it
	// arrives after the panic instead, it must still compute the leg.
	time.Sleep(50 * time.Millisecond)
	close(release)

	errs := <-failed
	if len(errs) != 1 || !errs[0].Panicked {
		t.Fatalf("panicking leg reported %v, want one panic", errs)
	}
	select {
	case how := <-waiter:
		if how != legRun {
			t.Fatalf("waiter got result %v, want its own run", how)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung on a leg whose computation panicked")
	}
	if ls, how := m.do("k", func() (*legSummary, legResult) { panic("recomputed a cached leg") }); how != legReused || ls.Kills != 7 {
		t.Fatalf("after recovery: %v %+v, want the waiter's leg reused", how, ls)
	}
	if n := m.resident(); n != 1 {
		t.Fatalf("%d legs resident, want 1 (the failed run cached nothing)", n)
	}
}

// TestLegMemoCap fills the memo far past its cap: at most the cap stays
// resident, the least recently used legs go first, and an evicted leg
// recomputes to an identical summary — checked on synthetic legs and on
// real ones through runLeg.
func TestLegMemoCap(t *testing.T) {
	m := newLegMemo(legMemoCap)
	leg := func(i int) func() (*legSummary, legResult) {
		return func() (*legSummary, legResult) {
			s := &metrics.Sample{}
			s.AddAll(float64(i), float64(i)/3)
			return &legSummary{Kills: i, All: map[string]*metrics.Sample{"app": s}}, legRun
		}
	}
	first := map[int]*legSummary{}
	for i := 0; i < 200; i++ {
		ls, _ := m.do(strconv.Itoa(i), leg(i))
		first[i] = ls
		m.do("0", leg(0)) // keep key 0 hot
	}
	if n := m.resident(); n > legMemoCap {
		t.Fatalf("%d legs resident, cap %d", n, legMemoCap)
	}
	if _, how := m.do("0", leg(0)); how != legReused {
		t.Error("the most recently used leg was evicted")
	}
	ls, how := m.do("1", leg(1))
	if how != legRun {
		t.Fatalf("least recently used leg answered %v, want a rerun", how)
	}
	if !reflect.DeepEqual(ls, first[1]) {
		t.Errorf("evicted leg recomputed differently: %+v vs %+v", ls, first[1])
	}

	// Real legs through a one-slot memo: B evicts A, A reruns identically.
	saved := legCache
	defer func() { legCache = saved }()
	legCache = newLegMemo(1)
	p := detParams(3)
	var c LegCounts
	pc := p.WithLegCounts(&c)
	a := runLeg(pc, Fig13Apps, systemConfig(p, android.PolicyFleet))
	runLeg(pc, Fig13Apps, systemConfig(p, android.PolicyAndroid))
	again := runLeg(pc, Fig13Apps, systemConfig(p, android.PolicyFleet))
	if c.Run.Load() != 3 {
		t.Fatalf("%d legs run, want 3 (the evicted leg reruns)", c.Run.Load())
	}
	if !reflect.DeepEqual(a, again) {
		t.Error("an evicted real leg recomputed to a different summary")
	}
}
