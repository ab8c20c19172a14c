package faults_test

import (
	"strings"
	"testing"

	"fleetsim/internal/faults"
	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// These tests corrupt one invariant class at a time and assert Check names
// it. Each subtest builds a fresh rig: violations (and latched corruption)
// must not leak between classes. Two of Check's findings — negative free
// frames and a live-count/walk mismatch — are defensive-only: no exported
// API can produce them, which is exactly why the checker recomputes them.

// checkFinds runs Check over the rig and asserts some violation contains
// want; it returns the full list for additional assertions.
func checkFinds(t *testing.T, vm *vmem.Manager, h *heap.Heap, want string) []string {
	t.Helper()
	v := faults.Check(vm, []*mem.AddressSpace{h.AS}, []*heap.Heap{h})
	for _, s := range v {
		if strings.Contains(s, want) {
			return v
		}
	}
	t.Fatalf("no violation mentions %q; got %v", want, v)
	return v
}

// pageIn returns the first instantiated page of as in the given state.
func pageIn(t *testing.T, as *mem.AddressSpace, st mem.PageState) *mem.Page {
	t.Helper()
	var found *mem.Page
	as.ForEachPage(func(p *mem.Page) {
		if found == nil && p.State == st {
			found = p
		}
	})
	if found == nil {
		t.Fatalf("no page in state %v to corrupt", st)
	}
	return found
}

// swappedRig is a rig with real swap traffic: the whole heap span advised
// cold, so swapped pages (and used slots) exist.
func swappedRig(t *testing.T) (*vmem.Manager, *heap.Heap) {
	t.Helper()
	vm, h := newRig(1024, 512)
	buildGraph(h, 100)
	vm.AdviseCold(h.AS, 0, h.AddressSpanBytes())
	if vm.Swap.UsedSlots() == 0 {
		t.Fatal("AdviseCold swapped nothing")
	}
	return vm, h
}

func TestCheckPageLRUClasses(t *testing.T) {
	t.Run("resident page off LRU", func(t *testing.T) {
		vm, h := newRig(1024, 512)
		buildGraph(h, 100)
		pageIn(t, h.AS, mem.PageResident).OnLRU = false
		v := checkFinds(t, vm, h, "not on any LRU list")
		// The unlinked page also desynchronises the list-length audit.
		checkContains(t, v, "LRU accounting")
	})
	t.Run("swapped page on LRU", func(t *testing.T) {
		vm, h := swappedRig(t)
		pageIn(t, h.AS, mem.PageSwapped).OnLRU = true
		checkFinds(t, vm, h, "still on an LRU list")
	})
	t.Run("unmapped page on LRU", func(t *testing.T) {
		vm, h := newRig(1024, 512)
		buildGraph(h, 100)
		p := pageIn(t, h.AS, mem.PageResident)
		vm.Release(p)  // legitimately unmapped...
		p.OnLRU = true // ...then forged back onto a list
		checkFinds(t, vm, h, "on an LRU list")
	})
}

func TestCheckCounterClasses(t *testing.T) {
	t.Run("resident counter and frame accounting", func(t *testing.T) {
		vm, h := newRig(1024, 512)
		buildGraph(h, 100)
		p := pageIn(t, h.AS, mem.PageResident)
		p.State = mem.PageUnmapped // page walk now disagrees with counters
		p.OnLRU = false
		v := checkFinds(t, vm, h, "resident counter says")
		checkContains(t, v, "frame accounting")
	})
	t.Run("swapped counter and slot accounting", func(t *testing.T) {
		vm, h := swappedRig(t)
		pageIn(t, h.AS, mem.PageSwapped).State = mem.PageUnmapped
		v := checkFinds(t, vm, h, "swapped counter says")
		checkContains(t, v, "slot accounting")
	})
	t.Run("swap device oversubscribed", func(t *testing.T) {
		vm, h := newRig(1024, 64)
		buildGraph(h, 10)
		// A negative unreserve inflates the reservation past capacity —
		// the squeeze-stream bug class the free-slot audit exists for.
		vm.Swap.UnreserveSlots(-(vm.Swap.TotalSlots() + 1))
		checkFinds(t, vm, h, "swap device oversubscribed")
	})
	t.Run("latched corruption", func(t *testing.T) {
		vm, h := newRig(1024, 512)
		buildGraph(h, 10)
		// Forge a resident page to swapped with zero used slots: releasing
		// it makes the manager discard a slot that was never written, which
		// latches ErrSwapCorrupt for the checker.
		p := pageIn(t, h.AS, mem.PageResident)
		p.State = mem.PageSwapped
		vm.Release(p)
		if vm.Corrupt() == nil {
			t.Fatal("phantom slot discard did not latch corruption")
		}
		checkFinds(t, vm, h, "latched corruption")
	})
}

func TestCheckHeapClasses(t *testing.T) {
	liveObject := func(t *testing.T, h *heap.Heap) (heap.ObjectID, heap.Object) {
		t.Helper()
		var id heap.ObjectID
		h.ForEachLiveObject(func(i heap.ObjectID, _ heap.Object) {
			if id == heap.NilObject {
				id = i
			}
		})
		if id == heap.NilObject {
			t.Fatal("no live object to corrupt")
		}
		return id, h.Object(id)
	}

	t.Run("live object in freed region", func(t *testing.T) {
		vm, h := newRig(1024, 512)
		buildGraph(h, 100)
		_, o := liveObject(t, h)
		h.FreeRegion(h.RegionByID(o.Region)) // collector forgot to move it
		checkFinds(t, vm, h, "freed region")
	})
	t.Run("object outside region span", func(t *testing.T) {
		vm, h := newRig(1024, 512)
		buildGraph(h, 100)
		id, o := liveObject(t, h)
		o.Addr += 100 * units.RegionSize
		h.Corrupt(id, o)
		checkFinds(t, vm, h, "outside region")
	})
	t.Run("live bytes mismatch", func(t *testing.T) {
		vm, h := newRig(1024, 512)
		buildGraph(h, 100)
		id, o := liveObject(t, h)
		o.Size-- // walk sum now trails the heap's counter
		h.Corrupt(id, o)
		checkFinds(t, vm, h, "live bytes")
	})
	t.Run("region overfull", func(t *testing.T) {
		vm, h := newRig(1024, 512)
		buildGraph(h, 100)
		_, o := liveObject(t, h)
		h.RegionByID(o.Region).Used = units.RegionSize + 1
		checkFinds(t, vm, h, "overfull")
	})
	t.Run("region object list mismatch", func(t *testing.T) {
		vm, h := newRig(1024, 512)
		buildGraph(h, 1100) // ~280 KB of objects: spills into a second region
		// Point an object at a region whose list does not name it: the
		// cross-count of listed-vs-table live objects must drop by one.
		id, o := liveObject(t, h)
		other := h.RegionByID(o.Region) // find any other region
		h.Regions(func(r *heap.Region) {
			if r.ID != o.Region {
				other = r
			}
		})
		if other.ID == o.Region {
			t.Skipf("heap has a single region; cannot mispoint object %d", id)
		}
		o.Region = other.ID
		h.Corrupt(id, o)
		checkFinds(t, vm, h, "region object lists name")
	})
}

// checkContains asserts some violation in v contains want.
func checkContains(t *testing.T, v []string, want string) {
	t.Helper()
	for _, s := range v {
		if strings.Contains(s, want) {
			return
		}
	}
	t.Errorf("no violation mentions %q; got %v", want, v)
}
