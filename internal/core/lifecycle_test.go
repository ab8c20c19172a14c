package core

import (
	"testing"
	"time"

	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/units"
)

// TestFullLifecycleCycles drives Fleet through two complete
// background/foreground cycles, checking that each phase leaves the
// machinery consistent (the §5.1 workflow).
func TestFullLifecycleCycles(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	root, hub, nros, _ := buildApp(h, 0)
	h.WriteBarrier = f.WriteBarrier
	gc.Major(h, nil, time.Second) // age the regions so not everything is FYO

	now := 100 * time.Second
	for cycle := 0; cycle < 2; cycle++ {
		// Background: group, then run BGC a few times with BGO churn.
		f.OnBackground()
		res := f.RunGrouping(now)
		if res.Kind != gc.KindGrouping {
			t.Fatalf("cycle %d: kind %v", cycle, res.Kind)
		}
		if f.State() != StateActive {
			t.Fatalf("cycle %d: state %v", cycle, f.State())
		}
		if len(f.LaunchRegions()) == 0 || len(f.ColdRegions()) == 0 {
			t.Fatalf("cycle %d: no grouped regions", cycle)
		}
		for i := 0; i < 3; i++ {
			now += 20 * time.Second
			// BGO churn: some live, some garbage.
			var keep heap.ObjectID
			for j := 0; j < 40; j++ {
				id, _, _ := h.Alloc(128, heap.EpochBackground, now)
				if j%4 == 0 {
					h.AddRef(hub, id, now) // via dirty FGO card
					keep = id
				}
			}
			bres := f.RunBGC(now)
			if bres.Kind != gc.KindBGC {
				t.Fatalf("cycle %d: BGC kind %v", cycle, bres.Kind)
			}
			if bres.ObjectsFreed == 0 {
				t.Fatalf("cycle %d: BGC freed nothing", cycle)
			}
			if keep != heap.NilObject && !h.Object(keep).Live() {
				t.Fatalf("cycle %d: live BGO collected", cycle)
			}
			f.RefreshAdvice()
		}

		// Hot launch: NRO must be resident.
		for _, id := range nros {
			if !vm.Resident(h.AS, h.Addr(id)) {
				t.Fatalf("cycle %d: NRO swapped at launch", cycle)
			}
		}
		now += time.Second
		f.OnForeground()
		// Foreground usage, then Tf expires.
		for _, id := range nros {
			h.Access(id, false, now)
		}
		now += 5 * time.Second
		f.Stop()
		if f.State() != StateInactive {
			t.Fatalf("cycle %d: state after stop %v", cycle, f.State())
		}
		// Foreground period with a normal major GC (stock behaviour).
		now += 10 * time.Second
		gc.Major(h, nil, now)
		if !h.Object(root).Live() {
			t.Fatal("root died")
		}
		now += 10 * time.Second
	}
}

// TestBGCWorkingSetStableAcrossCycles guards against the BGC working set
// growing as BGO survivors accumulate (they must be re-collected every
// cycle, not leak into the traced set forever).
func TestBGCWorkingSetStableAcrossCycles(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	_, hub, _, _ := buildApp(h, 0)
	h.WriteBarrier = f.WriteBarrier
	f.OnBackground()
	f.RunGrouping(100 * time.Second)

	now := 110 * time.Second
	var first, last int64
	for i := 0; i < 5; i++ {
		for j := 0; j < 30; j++ {
			id, _, _ := h.Alloc(128, heap.EpochBackground, now)
			if j%10 == 0 {
				h.AddRef(hub, id, now)
			}
		}
		res := f.RunBGC(now)
		if i == 0 {
			first = res.ObjectsTraced
		}
		last = res.ObjectsTraced
		now += 20 * time.Second
	}
	if last > first*3+100 {
		t.Errorf("BGC working set grew unboundedly: %d -> %d", first, last)
	}
}

// TestGroupingAfterRelaunchReclassifies ensures a second grouping (next
// background period) rebuilds classes from the new access history.
func TestGroupingAfterRelaunchReclassifies(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	f := New(DefaultConfig(), h, vm)
	_, _, nros, _ := buildApp(h, 0)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)
	f.OnForeground()
	f.Stop()

	// Second cycle.
	f.OnBackground()
	res := f.RunGrouping(200 * time.Second)
	if res.Kind != gc.KindGrouping {
		t.Fatal("second grouping did not run")
	}
	for _, id := range nros {
		if f.ClassOf(id) != ClassNRO {
			t.Error("NRO classification lost on second grouping")
		}
		if h.RegionOf(id).Kind != heap.KindLaunch {
			t.Error("NRO not in launch region after second grouping")
		}
	}
}
