package core

import (
	"testing"
	"testing/quick"
	"time"

	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

func newRig(dram int64) (*heap.Heap, *vmem.Manager) {
	phys := mem.NewPhysical(dram)
	swap := vmem.NewSwapDevice(vmem.DefaultSwapConfig())
	vm := vmem.NewManager(phys, swap)
	h := heap.New(mem.NewAddressSpace("fleet-test"), vm)
	return h, vm
}

// buildApp constructs a small app-like graph at time now:
//
//	root (depth 0)
//	 ├─ hub (depth 1) ─ leafs... (depth 2, NRO at D=2)
//	 └─ chain of depth > 2 (cold unless recently accessed)
//
// Returns the ids of interest.
func buildApp(h *heap.Heap, now time.Duration) (root, hub heap.ObjectID, nros, deep []heap.ObjectID) {
	root, _, _ = h.Alloc(64, heap.EpochForeground, now)
	h.AddRoot(root)
	hub, _, _ = h.Alloc(64, heap.EpochForeground, now)
	h.AddRef(root, hub, now)
	for i := 0; i < 10; i++ {
		leaf, _, _ := h.Alloc(128, heap.EpochForeground, now)
		h.AddRef(hub, leaf, now)
		nros = append(nros, leaf)
	}
	prev := nros[0]
	for i := 0; i < 20; i++ {
		d, _, _ := h.Alloc(256, heap.EpochForeground, now)
		h.AddRef(prev, d, now)
		deep = append(deep, d)
		prev = d
	}
	return
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NRODepth != 2 {
		t.Errorf("D = %d, want 2", cfg.NRODepth)
	}
	if cfg.BackgroundWait != 10*time.Second {
		t.Errorf("Ts = %v", cfg.BackgroundWait)
	}
	if cfg.ForegroundWait != 3*time.Second {
		t.Errorf("Tf = %v", cfg.ForegroundWait)
	}
	if cfg.CardShift != 10 {
		t.Errorf("CARD_SHIFT = %d", cfg.CardShift)
	}
}

func TestGroupingClassifiesNRO(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	root, hub, nros, deep := buildApp(h, 0)
	// Age everything so FYO/WS don't apply (grouping at t=100s,
	// WSWindow=10s).
	now := 100 * time.Second
	f.OnBackground()
	f.RunGrouping(now)

	for _, id := range append([]heap.ObjectID{root, hub}, nros...) {
		if f.ClassOf(id) != ClassNRO {
			t.Errorf("object %d class = %v, want NRO", id, f.ClassOf(id))
		}
	}
	for _, id := range deep[2:] { // depth > 2+2
		if f.ClassOf(id) == ClassNRO {
			t.Errorf("deep object %d wrongly NRO", id)
		}
	}
}

func TestGroupingClassifiesFYO(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	buildApp(h, 0)
	// A GC boundary, then fresh allocations: those are in newly-allocated
	// regions at grouping time → FYO (if deeper than D).
	gc.Major(h, nil, 50*time.Second)
	root2, _, _ := h.Alloc(64, heap.EpochForeground, 50*time.Second)
	h.AddRoot(root2)
	// Build a deep chain of fresh objects so depth > D.
	prev := root2
	var fresh []heap.ObjectID
	for i := 0; i < 10; i++ {
		id, _, _ := h.Alloc(128, heap.EpochForeground, 50*time.Second)
		h.AddRef(prev, id, 50*time.Second)
		fresh = append(fresh, id)
		prev = id
	}
	f.OnBackground()
	f.RunGrouping(100 * time.Second)
	for _, id := range fresh[2:] {
		if got := f.ClassOf(id); got != ClassFYO {
			t.Errorf("fresh deep object class = %v, want FYO", got)
		}
	}
}

func TestGroupingClassifiesWS(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	_, _, _, deep := buildApp(h, 0)
	gc.Major(h, nil, time.Second) // age regions so FYO doesn't apply
	now := 100 * time.Second
	// Touch one deep object recently: it becomes WS.
	h.Access(deep[10], false, now-2*time.Second)
	f.OnBackground()
	f.RunGrouping(now)
	if got := f.ClassOf(deep[10]); got != ClassWS {
		t.Errorf("recently used object class = %v, want WS", got)
	}
	if got := f.ClassOf(deep[15]); got != ClassCold {
		t.Errorf("idle deep object class = %v, want cold", got)
	}
}

func TestGroupingEvacuatesIntoTypedRegions(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	root, _, nros, deep := buildApp(h, 0)
	gc.Major(h, nil, time.Second)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)

	if h.RegionOf(root).Kind != heap.KindLaunch {
		t.Error("root should be in a launch region")
	}
	for _, id := range nros {
		if h.RegionOf(id).Kind != heap.KindLaunch {
			t.Error("NRO not in launch region")
		}
	}
	coldSeen := false
	for _, id := range deep[5:] {
		if h.RegionOf(id).Kind == heap.KindCold {
			coldSeen = true
		}
		if !h.RegionOf(id).FGO {
			t.Error("post-grouping region not marked FGO")
		}
	}
	if !coldSeen {
		t.Error("no cold regions produced")
	}
	if f.State() != StateActive {
		t.Errorf("state = %v", f.State())
	}
}

func TestGroupingSwapsOutColdAndKeepsLaunchResident(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	_, _, nros, deep := buildApp(h, 0)
	gc.Major(h, nil, time.Second)
	f.OnBackground()
	gs := f.LastGrouping()
	res := f.RunGrouping(100 * time.Second)
	gs = f.LastGrouping()
	_ = res

	if gs.AdviseIO <= 0 {
		t.Error("active swap-out should cost IO")
	}
	// Launch objects resident, cold objects swapped.
	for _, id := range nros {
		if !vm.Resident(h.AS, h.Addr(id)) {
			t.Error("launch object not resident after grouping")
		}
	}
	swapped := 0
	for _, id := range deep[5:] {
		if !vm.Resident(h.AS, h.Addr(id)) {
			swapped++
		}
	}
	if swapped == 0 {
		t.Error("no cold objects were proactively swapped out")
	}
}

func TestGroupingCollectsGarbage(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	buildApp(h, 0)
	g, _, _ := h.Alloc(4096, heap.EpochForeground, 0) // unreachable
	f.OnBackground()
	res := f.RunGrouping(100 * time.Second)
	if res.ObjectsFreed == 0 {
		t.Error("grouping GC freed nothing")
	}
	if h.Object(g).Live() {
		t.Error("garbage survived grouping GC")
	}
}

func TestBGCOnlyTracesBGO(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	root, _, _, _ := buildApp(h, 0)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)
	fgoCount := h.LiveObjects()

	// Background allocations: chain of BGO from the root, plus BGO
	// garbage.
	now := 110 * time.Second
	var bgos []heap.ObjectID
	prev := root
	for i := 0; i < 50; i++ {
		id, _, _ := h.Alloc(128, heap.EpochBackground, now)
		h.AddRef(prev, id, now)
		bgos = append(bgos, id)
		prev = id
	}
	for i := 0; i < 30; i++ {
		h.Alloc(128, heap.EpochBackground, now) // garbage
	}

	res := f.RunBGC(now + time.Second)
	// Working set must be ~|live BGO| + seeds, not the whole heap
	// (|FGO| + |BGO|). Garbage BGO are never reached, so they don't count
	// either.
	totalLive := fgoCount + 50 + 30
	if res.ObjectsTraced >= totalLive {
		t.Errorf("BGC traced %d objects of %d total — range not restricted", res.ObjectsTraced, totalLive)
	}
	if res.ObjectsTraced > 50+5 {
		t.Errorf("BGC traced %d objects, want ≈ 50 live BGO + root seeds", res.ObjectsTraced)
	}
	if res.ObjectsFreed != 30 {
		t.Errorf("BGC freed %d, want 30", res.ObjectsFreed)
	}
	for _, id := range bgos {
		if !h.Object(id).Live() {
			t.Error("live BGO collected")
		}
	}
}

func TestBGCDoesNotFaultSwappedFGO(t *testing.T) {
	// The heart of the co-design: with FGO cold-swapped and no dirty
	// cards, a BGC cycle must cause zero swap-ins.
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	root, _, _, _ := buildApp(h, 0)
	gc.Major(h, nil, time.Second)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)

	// Allocate some BGO referencing FGO (BGO→FGO edges are fine).
	now := 110 * time.Second
	id, _, _ := h.Alloc(128, heap.EpochBackground, now)
	h.AddRef(root, id, now) // dirties root's card (root is FGO)

	// Swap out *everything* FGO including launch regions.
	h.Regions(func(r *heap.Region) {
		if r.FGO && r.Kind != heap.KindLaunch {
			vm.AdviseCold(h.AS, r.Base, units.RegionSize)
		}
	})

	swapInsBefore := vm.Stats().SwapIns
	f.RunBGC(now + time.Second)
	swapIns := vm.Stats().SwapIns - swapInsBefore
	// The only permissible touches are the dirty-card FGO (root, which is
	// in a resident launch region) — so zero swap-ins.
	if swapIns != 0 {
		t.Errorf("BGC faulted %d FGO pages back in", swapIns)
	}
}

func TestBGCDirtyCardKeepsBGOAlive(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	root, hub, _, _ := buildApp(h, 0)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)

	// Install Fleet's barrier the way the runtime does.
	h.WriteBarrier = f.WriteBarrier

	// A BGO reachable ONLY through an FGO (hub): hub is written, so its
	// card is dirty and BGC must find the BGO through it.
	now := 110 * time.Second
	bgo, _, _ := h.Alloc(256, heap.EpochBackground, now)
	h.AddRef(hub, bgo, now)
	if f.CardTable().DirtyCards() == 0 {
		t.Fatal("write barrier did not dirty the FGO card")
	}
	// Remove all other paths: roots only keep root; root->hub edge exists
	// (FGO→FGO, untraced by BGC) — so without the card, bgo would die.
	f.RunBGC(now + time.Second)
	if !h.Object(bgo).Live() {
		t.Error("BGO reachable only via dirty FGO card was collected")
	}
	_ = root
}

func TestBGCWithoutGroupingFallsBackToMajor(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	buildApp(h, 0)
	h.Alloc(64, heap.EpochForeground, 0) // garbage
	res := f.RunBGC(time.Second)
	if res.Kind != gc.KindMajor {
		t.Errorf("fallback kind = %v, want major", res.Kind)
	}
}

func TestStopClearsState(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	buildApp(h, 0)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)
	f.OnForeground()
	if f.State() != StatePendingStop {
		t.Errorf("state = %v", f.State())
	}
	f.Stop()
	if f.State() != StateInactive {
		t.Errorf("state = %v", f.State())
	}
	if f.CardTable() != nil {
		t.Error("card table must be dropped")
	}
	fgo := 0
	h.Regions(func(r *heap.Region) {
		if r.FGO {
			fgo++
		}
	})
	if fgo != 0 {
		t.Errorf("%d regions still FGO after Stop", fgo)
	}
	// Barrier must be inert now.
	f.WriteBarrier(heap.NilObject + 1)
}

func TestRefreshAdviceKeepsLaunchHot(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	_, _, nros, _ := buildApp(h, 0)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)
	f.RefreshAdvice()
	for _, id := range nros {
		addr := h.Addr(id)
		p := h.AS.PageByIndex(addr / units.PageSize)
		if p == nil || !p.Hot {
			t.Error("launch page not marked hot after refresh")
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassNRO.String() != "NRO" || ClassFYO.String() != "FYO" || ClassWS.String() != "WS" || ClassCold.String() != "cold" {
		t.Error("class strings wrong")
	}
}

func TestStateString(t *testing.T) {
	states := map[State]string{
		StateInactive: "inactive", StatePendingGroup: "pending-group",
		StateActive: "active", StatePendingStop: "pending-stop",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("State(%d) = %q", s, s.String())
		}
	}
}

// Property (DESIGN.md invariant 5): after any BGC on a random mutated
// graph, every BGO reachable from roots ∪ dirty-FGO is alive, and every
// unreachable BGO is dead.
func TestBGCCorrectnessProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		h, vm := newRig(512 * units.MiB)
		fl := New(DefaultConfig(), h, vm)

		// Foreground phase: random graph.
		var fgo []heap.ObjectID
		root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
		h.AddRoot(root)
		fgo = append(fgo, root)
		for i := 0; i < 150; i++ {
			id, _, _ := h.Alloc(int32(16+r.Intn(300)), heap.EpochForeground, 0)
			h.AddRef(fgo[r.Intn(len(fgo))], id, 0)
			fgo = append(fgo, id)
		}
		fl.OnBackground()
		fl.RunGrouping(100 * time.Second)
		h.WriteBarrier = fl.WriteBarrier

		// Background phase: BGO graph hung off random parents (FGO or
		// BGO) plus some BGO garbage.
		now := 110 * time.Second
		var bgo []heap.ObjectID
		parents := append([]heap.ObjectID{}, fgo...)
		for i := 0; i < 100; i++ {
			id, _, _ := h.Alloc(int32(16+r.Intn(300)), heap.EpochBackground, now)
			if r.Bool(0.7) {
				h.AddRef(parents[r.Intn(len(parents))], id, now)
				parents = append(parents, id)
			} // else garbage
			bgo = append(bgo, id)
		}

		// Expected liveness of BGO: reachable from roots through the full
		// graph (FGO edges included — they're all conservatively live).
		reach := map[heap.ObjectID]bool{}
		var stack []heap.ObjectID
		for _, id := range h.Roots() {
			reach[id] = true
			stack = append(stack, id)
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ref := range h.Refs(id) {
				if ref != heap.NilObject && !reach[ref] {
					reach[ref] = true
					stack = append(stack, ref)
				}
			}
		}
		fl.RunBGC(now + time.Second)
		for _, id := range bgo {
			if reach[id] && !h.Object(id).Live() {
				return false // live BGO collected
			}
			if !reach[id] && h.Object(id).Live() {
				return false // garbage BGO survived
			}
		}
		// FGO are never collected by BGC.
		for _, id := range fgo {
			if !h.Object(id).Live() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property (DESIGN.md invariant 6): NRO(D) is exactly the set of live
// objects with BFS depth ≤ D, for random D and random graphs.
func TestNROClassificationProperty(t *testing.T) {
	f := func(seed uint64, dRaw uint8) bool {
		r := xrand.New(seed)
		d := int(dRaw%5) + 1
		h, vm := newRig(512 * units.MiB)
		cfg := DefaultConfig()
		cfg.NRODepth = d
		fl := New(cfg, h, vm)

		var ids []heap.ObjectID
		root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
		h.AddRoot(root)
		ids = append(ids, root)
		for i := 0; i < 200; i++ {
			id, _, _ := h.Alloc(int32(16+r.Intn(200)), heap.EpochForeground, 0)
			h.AddRef(ids[r.Intn(len(ids))], id, 0)
			ids = append(ids, id)
		}
		gc.Major(h, nil, time.Second) // age regions: no FYO
		want := gc.Depths(h)
		fl.OnBackground()
		fl.RunGrouping(100 * time.Second)
		for _, id := range ids {
			depth, ok := want.Of(id)
			if !ok {
				continue
			}
			gotNRO := fl.ClassOf(id) == ClassNRO
			if gotNRO != (depth <= d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: grouping preserves the reference graph and live set exactly
// (it is a copying GC, so only addresses may change).
func TestGroupingPreservesGraph(t *testing.T) {
	r := xrand.New(3)
	h, vm := newRig(512 * units.MiB)
	fl := New(DefaultConfig(), h, vm)
	var ids []heap.ObjectID
	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	ids = append(ids, root)
	for i := 0; i < 300; i++ {
		id, _, _ := h.Alloc(int32(16+r.Intn(200)), heap.EpochForeground, 0)
		h.AddRef(ids[r.Intn(len(ids))], id, 0)
		ids = append(ids, id)
	}
	type edge struct{ from, to heap.ObjectID }
	var before []edge
	for _, id := range ids {
		for _, ref := range h.Refs(id) {
			before = append(before, edge{id, ref})
		}
	}
	liveBefore := h.LiveObjects()
	fl.OnBackground()
	fl.RunGrouping(100 * time.Second)
	if h.LiveObjects() != liveBefore {
		t.Errorf("live objects %d -> %d across grouping", liveBefore, h.LiveObjects())
	}
	i := 0
	for _, id := range ids {
		for _, ref := range h.Refs(id) {
			if before[i] != (edge{id, ref}) {
				t.Fatal("reference graph changed across grouping")
			}
			i++
		}
	}
}
