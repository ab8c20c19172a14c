package gc

import (
	"testing"
	"time"

	"fleetsim/internal/heap"
	"fleetsim/internal/units"
)

// TestMajorKeepsDenseRegionsInPlace verifies the selective-evacuation
// policy: a region that is almost entirely live is collected in place (its
// survivors keep their addresses), while a mostly-garbage region is
// evacuated and freed.
func TestMajorKeepsDenseRegionsInPlace(t *testing.T) {
	h := newTestHeap()
	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)

	// Dense region: fill region 0 with live objects.
	var dense []heap.ObjectID
	for h.RegionOf(root).BytesFree() > 256 {
		id, _, _ := h.Alloc(128, heap.EpochForeground, 0)
		h.AddRef(root, id, 0)
		dense = append(dense, id)
	}
	denseRegion := h.RegionOf(root)

	// Sparse region: mostly garbage.
	var sparse []heap.ObjectID
	filler, _, _ := h.Alloc(int32(units.RegionSize-int64(h.RegionOf(root).BytesFree())), heap.EpochForeground, 0)
	h.AddRef(root, filler, 0) // pushes allocation into a fresh region
	for i := 0; i < 500; i++ {
		id, _, _ := h.Alloc(256, heap.EpochForeground, 0)
		if i%10 == 0 {
			h.AddRef(root, id, 0) // 10% survive
			sparse = append(sparse, id)
		}
	}

	addrBefore := map[heap.ObjectID]int64{}
	for _, id := range dense {
		addrBefore[id] = h.Addr(id)
	}

	Major(h, nil, time.Second)

	for _, id := range dense {
		if !h.Object(id).Live() {
			t.Fatal("dense live object collected")
		}
		if h.Addr(id) != addrBefore[id] {
			t.Fatal("dense region was evacuated; expected in-place collection")
		}
	}
	if denseRegion.Free() {
		t.Fatal("dense region freed")
	}
	for _, id := range sparse {
		if !h.Object(id).Live() {
			t.Fatal("sparse survivor collected")
		}
		// Sparse survivors moved out of their mostly-garbage region.
	}
}

// TestMajorEventuallyCompactsDecayedRegions: killing most of a dense
// region's objects makes the next Major evacuate it.
func TestMajorEventuallyCompactsDecayedRegions(t *testing.T) {
	h := newTestHeap()
	root, _, _ := h.Alloc(64, heap.EpochForeground, 0)
	h.AddRoot(root)
	var ids []heap.ObjectID
	for i := 0; i < 1500; i++ {
		id, _, _ := h.Alloc(512, heap.EpochForeground, 0)
		h.AddRef(root, id, 0)
		ids = append(ids, id)
	}
	Major(h, nil, 0)
	regions1 := h.RegionCount()

	// Drop 80% of the references: the dense regions decay.
	h.ClearRefs(root, 0)
	for i, id := range ids {
		if i%5 == 0 {
			h.AddRef(root, id, 0)
		}
	}
	Major(h, nil, time.Second)
	if h.RegionCount() >= regions1 {
		t.Errorf("decayed heap not compacted: %d -> %d regions", regions1, h.RegionCount())
	}
	for i, id := range ids {
		want := i%5 == 0
		if h.Object(id).Live() != want {
			t.Fatalf("object %d liveness wrong", i)
		}
	}
}

// TestEvacuatorPageAlign gives each copied object private pages.
func TestEvacuatorPageAlign(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(100, heap.EpochForeground, 0)
	b, _, _ := h.Alloc(100, heap.EpochForeground, 0)
	ev := h.NewEvacuator()
	ev.PageAlign = true
	ev.Copy(a, heap.KindCold)
	ev.Copy(b, heap.KindCold)
	oa, ob := h.Object(a), h.Object(b)
	if oa.Addr%units.PageSize != 0 || ob.Addr%units.PageSize != 0 {
		t.Errorf("objects not page aligned: %d %d", oa.Addr, ob.Addr)
	}
	if units.PageIndex(oa.Addr) == units.PageIndex(ob.Addr) {
		t.Error("objects share a page despite PageAlign")
	}
}

// TestEvacuatorPinDest pins destination pages as they are written.
func TestEvacuatorPinDest(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(100, heap.EpochForeground, 0)
	ev := h.NewEvacuator()
	ev.PinDest = true
	ev.Copy(a, heap.KindNormal)
	ev.Finish()
	p := h.AS.PageByIndex(units.PageIndex(h.Addr(a)))
	if p == nil || !p.Pinned {
		t.Error("destination page not pinned")
	}
}
