package core

import (
	"testing"
	"time"

	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/units"
)

// TestLeakFallbackTriggersFullGC: when BGO garbage hides behind FGO
// references (a leak pattern BGC cannot reclaim), Fleet must eventually run
// the §5.2 full-tracing fallback and clear FGO garbage too.
func TestLeakFallbackTriggersFullGC(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	cfg := DefaultConfig()
	cfg.LeakFallbackCycles = 3
	f := New(cfg, h, vm)
	root, hub, _, deep := buildApp(h, 0)
	gc.Major(h, nil, time.Second)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)
	h.WriteBarrier = f.WriteBarrier

	// Create FGO garbage by cutting a deep chain: BGC can never reclaim
	// it (it refuses to trace FGO), only the fallback can.
	h.ClearRefs(deep[0], 101*time.Second)
	fgoGarbage := deep[5]
	garbageSeq := h.Seq(fgoGarbage)

	// Background cycles that allocate but keep everything alive via a
	// dirty FGO, so BGC reclaims ~nothing (low yield).
	now := 102 * time.Second
	for i := 0; i < 5; i++ {
		for j := 0; j < 20; j++ {
			id, _, _ := h.Alloc(256, heap.EpochBackground, now)
			h.AddRef(hub, id, now) // all survive
		}
		f.RunBGC(now)
		now += 20 * time.Second
	}
	if f.FullFallbacks() == 0 {
		t.Fatal("leak fallback never triggered")
	}
	// The object slot may have been recycled; identity is the Seq.
	if o := h.Object(fgoGarbage); o.Live() && o.Seq == garbageSeq {
		t.Error("FGO garbage survived the fallback full GC")
	}
	if !h.Object(root).Live() || !h.Object(hub).Live() {
		t.Error("live objects killed by fallback")
	}
	// After the fallback, the card table is stood down until the next
	// grouping.
	if f.CardTable() != nil {
		t.Error("card table should be dropped after fallback")
	}
	// And the next grouping rebuilds everything.
	f.RunGrouping(now)
	if f.CardTable() == nil || len(f.LaunchRegions()) == 0 {
		t.Error("re-grouping after fallback incomplete")
	}
}

// TestHealthyBGCNeverFallsBack: normal background churn (mostly garbage)
// keeps BGC yield high, so the fallback stays quiet.
func TestHealthyBGCNeverFallsBack(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	cfg := DefaultConfig()
	cfg.LeakFallbackCycles = 3
	f := New(cfg, h, vm)
	buildApp(h, 0)
	gc.Major(h, nil, time.Second)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)
	h.WriteBarrier = f.WriteBarrier

	now := 102 * time.Second
	for i := 0; i < 8; i++ {
		for j := 0; j < 30; j++ {
			h.Alloc(256, heap.EpochBackground, now) // all garbage
		}
		f.RunBGC(now)
		now += 20 * time.Second
	}
	if f.FullFallbacks() != 0 {
		t.Errorf("healthy BGC fell back %d times", f.FullFallbacks())
	}
}

func TestDisableColdAdviseAblation(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	cfg := DefaultConfig()
	cfg.DisableColdAdvise = true
	f := New(cfg, h, vm)
	_, _, _, deep := buildApp(h, 0)
	gc.Major(h, nil, time.Second)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)
	// Without COLD_RUNTIME nothing was proactively swapped.
	for _, id := range deep {
		if !vm.Resident(h.AS, h.Addr(id)) {
			t.Fatal("cold object swapped despite DisableColdAdvise")
		}
	}
	if f.LastGrouping().AdviseIO != 0 {
		t.Error("advise IO charged despite ablation")
	}
}

func TestDisableHotAdviceAblation(t *testing.T) {
	h, vm := newRig(256 * units.MiB)
	cfg := DefaultConfig()
	cfg.DisableHotAdvice = true
	f := New(cfg, h, vm)
	_, _, nros, _ := buildApp(h, 0)
	gc.Major(h, nil, time.Second)
	f.OnBackground()
	f.RunGrouping(100 * time.Second)
	f.RefreshAdvice()
	for _, id := range nros {
		p := h.AS.PageByIndex(h.Addr(id) / units.PageSize)
		if p != nil && p.Hot {
			t.Fatal("launch page marked hot despite DisableHotAdvice")
		}
	}
}
