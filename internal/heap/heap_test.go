package heap

import (
	"errors"
	"testing"
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// newTestHeap builds a heap backed by a generous device so tests exercise
// heap logic, not memory pressure.
func newTestHeap() *Heap {
	phys := mem.NewPhysical(64 * units.MiB)
	swap := vmem.NewSwapDevice(vmem.DefaultSwapConfig())
	vm := vmem.NewManager(phys, swap)
	as := mem.NewAddressSpace("test-app")
	return New(as, vm)
}

func TestAllocBasics(t *testing.T) {
	h := newTestHeap()
	id, stall, _ := h.Alloc(512, EpochForeground, 0)
	if id == NilObject {
		t.Fatal("alloc returned nil object")
	}
	if stall <= 0 {
		t.Error("first alloc should minor-fault")
	}
	o := h.Object(id)
	if o.Size != 512 || o.Epoch != EpochForeground || !o.Live() {
		t.Errorf("object = %+v", o)
	}
	if h.LiveObjects() != 1 || h.LiveBytes() != 512 {
		t.Errorf("live: %d objects, %d bytes", h.LiveObjects(), h.LiveBytes())
	}
	st := h.Stats()
	if st.Allocated != 1 || st.AllocatedBytes != 512 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAllocSequenceMonotonic(t *testing.T) {
	h := newTestHeap()
	var prev uint64
	for i := 0; i < 100; i++ {
		id, _, _ := h.Alloc(64, EpochForeground, 0)
		seq := h.Seq(id)
		if seq <= prev {
			t.Fatalf("seq %d not monotonic after %d", seq, prev)
		}
		prev = seq
	}
}

func TestBumpPointerPlacement(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(100, EpochForeground, 0)
	b, _, _ := h.Alloc(100, EpochForeground, 0)
	oa, ob := h.Object(a), h.Object(b)
	if ob.Addr != oa.Addr+100 {
		t.Errorf("not bump allocated: %d then %d", oa.Addr, ob.Addr)
	}
	if oa.Region != ob.Region {
		t.Error("small objects should share a region")
	}
}

func TestRegionOverflowOpensNewRegion(t *testing.T) {
	h := newTestHeap()
	// Fill most of a region then allocate something that doesn't fit.
	big := int32(units.RegionSize - 100)
	a, _, _ := h.Alloc(big, EpochForeground, 0)
	b, _, _ := h.Alloc(200, EpochForeground, 0)
	if h.RegionID(a) == h.RegionID(b) {
		t.Error("second object should be in a fresh region")
	}
	if h.RegionCount() != 2 {
		t.Errorf("regions = %d", h.RegionCount())
	}
}

func TestOversizeAllocReturnsError(t *testing.T) {
	h := newTestHeap()
	id, _, err := h.Alloc(int32(units.RegionSize+1), EpochForeground, 0)
	if !errors.Is(err, ErrObjectTooLarge) {
		t.Errorf("oversize alloc = %v, want ErrObjectTooLarge", err)
	}
	if id != NilObject {
		t.Error("failed alloc must return NilObject")
	}
	if h.LiveObjects() != 0 {
		t.Error("failed alloc must not create an object")
	}
}

func TestRegionAtAndRegionOf(t *testing.T) {
	h := newTestHeap()
	id, _, _ := h.Alloc(512, EpochBackground, 0)
	o := h.Object(id)
	if h.RegionAt(o.Addr) != h.RegionOf(id) {
		t.Error("RegionAt and RegionOf disagree")
	}
	if h.RegionOf(id).ID != o.Region {
		t.Error("RegionOf wrong region")
	}
}

func TestRootsAndRefs(t *testing.T) {
	h := newTestHeap()
	root, _, _ := h.Alloc(64, EpochForeground, 0)
	child, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRoot(root)
	h.AddRef(root, child, 0)
	if len(h.Roots()) != 1 {
		t.Errorf("roots = %d", len(h.Roots()))
	}
	if got := h.Refs(root); len(got) != 1 || got[0] != child {
		t.Errorf("refs = %v", got)
	}
	h.RemoveRoot(root)
	if len(h.RootSlice()) != 0 {
		t.Error("root not removed")
	}
}

func TestSetRefGrowsSlots(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	b, _, _ := h.Alloc(64, EpochForeground, 0)
	h.SetRef(a, 3, b, 0)
	refs := h.Refs(a)
	if len(refs) != 4 || refs[3] != b || refs[0] != NilObject {
		t.Errorf("refs = %v", refs)
	}
}

func TestClearRefs(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	b, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRef(a, b, 0)
	h.ClearRefs(a, 0)
	if len(h.Refs(a)) != 0 {
		t.Error("refs not cleared")
	}
}

func TestWriteBarrierFires(t *testing.T) {
	h := newTestHeap()
	var barriered []ObjectID
	h.WriteBarrier = func(id ObjectID) { barriered = append(barriered, id) }
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	b, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRef(a, b, 0)
	if len(barriered) != 1 || barriered[0] != a {
		t.Errorf("write barrier calls = %v", barriered)
	}
	// Reads must not fire the write barrier.
	h.Access(a, false, 0)
	if len(barriered) != 1 {
		t.Error("read fired write barrier")
	}
}

func TestReadBarrierFires(t *testing.T) {
	h := newTestHeap()
	var reads int
	h.ReadBarrier = func(id ObjectID) { reads++ }
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.Access(a, false, 0)
	h.Access(a, true, 0)
	if reads != 2 {
		t.Errorf("read barrier calls = %d", reads)
	}
}

func TestAccessSampler(t *testing.T) {
	h := newTestHeap()
	var sampled int
	h.AccessSampler = func(id ObjectID, write bool) { sampled++ }
	h.SampleEvery = 10
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	for i := 0; i < 100; i++ {
		h.Access(a, false, 0)
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 100 accesses at 1/10", sampled)
	}
}

func TestAccessDeadObjectReturnsError(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.KillObject(a)
	if _, err := h.Access(a, false, 0); !errors.Is(err, ErrDeadObject) {
		t.Errorf("access to dead object = %v, want ErrDeadObject", err)
	}
}

func TestKillAndSlotRecycling(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.KillObject(a)
	if h.LiveObjects() != 0 || h.LiveBytes() != 0 {
		t.Error("kill did not update stats")
	}
	h.KillObject(a) // double-kill is a no-op
	b, _, _ := h.Alloc(32, EpochBackground, 0)
	if b != a {
		t.Errorf("slot not recycled: got %d want %d", b, a)
	}
	if h.Size(b) != 32 || h.Epoch(b) != EpochBackground {
		t.Error("recycled slot has stale data")
	}
}

func TestNoteGCCompleteClearsNewlyAllocated(t *testing.T) {
	h := newTestHeap()
	h.Alloc(64, EpochForeground, 0)
	r := h.RegionByID(0)
	if !r.NewlyAllocated {
		t.Fatal("fresh region should be NewlyAllocated")
	}
	h.NoteGCComplete()
	if r.NewlyAllocated {
		t.Error("NewlyAllocated not cleared by GC")
	}
	if h.GCCount() != 1 {
		t.Errorf("gc count = %d", h.GCCount())
	}
	// Allocation after GC opens a fresh NewlyAllocated region.
	id, _, _ := h.Alloc(64, EpochForeground, 0)
	if !h.RegionOf(id).NewlyAllocated {
		t.Error("post-GC allocation region should be NewlyAllocated")
	}
}

func TestMarkGenerations(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.BeginTrace()
	if h.Marked(a) {
		t.Error("fresh trace should have nothing marked")
	}
	if !h.Mark(a) {
		t.Error("first Mark must report newly marked")
	}
	if h.Mark(a) {
		t.Error("second Mark must report already marked")
	}
	if !h.Marked(a) {
		t.Error("Marked should now be true")
	}
	h.BeginTrace()
	if h.Marked(a) {
		t.Error("new generation must clear marks")
	}
}

func TestFreeRegionReleasesMemory(t *testing.T) {
	h := newTestHeap()
	id, _, _ := h.Alloc(1024, EpochForeground, 0)
	r := h.RegionOf(id)
	h.KillObject(id)
	resBefore := h.AS.ResidentPages()
	h.FreeRegion(r)
	if !r.Free() {
		t.Error("region not freed")
	}
	if h.AS.ResidentPages() >= resBefore {
		t.Error("region pages not released")
	}
	// Freed region is recycled by the next allocation.
	id2, _, _ := h.Alloc(64, EpochForeground, 0)
	if h.RegionOf(id2) != r {
		t.Error("freed region slot not recycled")
	}
}

func TestEvacuatorCopies(t *testing.T) {
	h := newTestHeap()
	id, _, _ := h.Alloc(300, EpochForeground, 0)
	oldAddr := h.Addr(id)
	oldRegion := h.RegionID(id)

	ev := h.NewEvacuator()
	ev.Copy(id, KindLaunch)
	o := h.Object(id)
	if o.Addr == oldAddr || o.Region == oldRegion {
		t.Error("object not moved")
	}
	newR := h.RegionOf(id)
	if newR.Kind != KindLaunch {
		t.Errorf("to-region kind = %v", newR.Kind)
	}
	if newR.NewlyAllocated {
		t.Error("to-region must not count as newly allocated")
	}
	if ev.CopiedBytes != 300 {
		t.Errorf("copied bytes = %d", ev.CopiedBytes)
	}
	if len(ev.ToRegions()) != 1 {
		t.Errorf("to-regions = %d", len(ev.ToRegions()))
	}
}

func TestEvacuatorGroupsByKind(t *testing.T) {
	h := newTestHeap()
	var launch, cold []ObjectID
	for i := 0; i < 10; i++ {
		a, _, _ := h.Alloc(256, EpochForeground, 0)
		b, _, _ := h.Alloc(256, EpochForeground, 0)
		launch = append(launch, a)
		cold = append(cold, b)
	}
	ev := h.NewEvacuator()
	for _, id := range launch {
		ev.Copy(id, KindLaunch)
	}
	for _, id := range cold {
		ev.Copy(id, KindCold)
	}
	// All launch objects must share region kind Launch, and be compact.
	lr := h.RegionOf(launch[0])
	for _, id := range launch {
		if h.RegionOf(id).Kind != KindLaunch {
			t.Fatal("launch object in wrong region kind")
		}
	}
	for _, id := range cold {
		if h.RegionOf(id).Kind != KindCold {
			t.Fatal("cold object in wrong region kind")
		}
		if h.RegionOf(id) == lr {
			t.Fatal("cold object grouped with launch objects")
		}
	}
}

func TestHeapBytes(t *testing.T) {
	h := newTestHeap()
	h.Alloc(100, EpochForeground, 0)
	if h.HeapBytes() != units.RegionSize {
		t.Errorf("heap bytes = %d", h.HeapBytes())
	}
}

func TestRefsSliceReuseNotAliased(t *testing.T) {
	// Regression guard: a recycled object slot reuses the Refs backing
	// array; ensure the new object starts with zero refs.
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	b, _, _ := h.Alloc(64, EpochForeground, 0)
	h.AddRef(a, b, 0)
	h.KillObject(a)
	c, _, _ := h.Alloc(64, EpochForeground, 0)
	if c != a {
		t.Skip("slot not recycled in this configuration")
	}
	if len(h.Refs(c)) != 0 {
		t.Error("recycled object inherited refs")
	}
}

func TestLastAccessUpdated(t *testing.T) {
	h := newTestHeap()
	a, _, _ := h.Alloc(64, EpochForeground, 0)
	h.Access(a, false, 5*time.Second)
	if h.LastAccess(a) != 5*time.Second {
		t.Errorf("LastAccess = %v", h.LastAccess(a))
	}
}
