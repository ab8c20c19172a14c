package faults

import (
	"fmt"

	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// Check cross-validates the layers' redundant accounting: every page-table
// entry against its space's resident/swapped counters, the global frame
// and swap-slot counts against the sum over spaces, LRU list lengths
// against linked pages, and each heap's object table against its regions.
// spaces must list every address space the manager serves (including the
// injector's storm space) or the global sums will disagree by design.
// The returned slice is empty when all layers agree; entries are capped so
// a systemic breakage does not drown the report.
func Check(vm *vmem.Manager, spaces []*mem.AddressSpace, heaps []*heap.Heap) []string {
	var v []string
	addf := func(format string, args ...any) {
		if len(v) < 64 {
			v = append(v, fmt.Sprintf(format, args...))
		}
	}

	var resident, swapped, onLRU int64
	for _, as := range spaces {
		var sr, ss int64
		as.ForEachPage(func(p *mem.Page) {
			switch p.State {
			case mem.PageResident:
				sr++
				if !p.OnLRU {
					addf("%s: resident page %d not on any LRU list", as.Owner, p.Index)
				}
			case mem.PageSwapped:
				ss++
				if p.OnLRU {
					addf("%s: swapped page %d still on an LRU list", as.Owner, p.Index)
				}
			default:
				if p.OnLRU {
					addf("%s: unmapped page %d on an LRU list", as.Owner, p.Index)
				}
			}
			if p.OnLRU {
				onLRU++
			}
		})
		if sr != as.ResidentPages() {
			addf("%s: resident counter says %d, page walk found %d", as.Owner, as.ResidentPages(), sr)
		}
		if ss != as.SwappedPages() {
			addf("%s: swapped counter says %d, page walk found %d", as.Owner, as.SwappedPages(), ss)
		}
		resident += sr
		swapped += ss
	}
	if resident != vm.Phys.UsedFrames() {
		addf("frame accounting: %d frames in use but %d resident pages exist", vm.Phys.UsedFrames(), resident)
	}
	if swapped != vm.Swap.UsedSlots() {
		addf("slot accounting: %d slots in use but %d swapped pages exist", vm.Swap.UsedSlots(), swapped)
	}
	if a, i := vm.LRUSizes(); a+i != onLRU {
		addf("LRU accounting: lists report %d pages but %d pages are linked", a+i, onLRU)
	}
	if vm.Swap.FreeSlots() < 0 {
		addf("swap device oversubscribed: %d free slots", vm.Swap.FreeSlots())
	}
	if vm.Phys.FreeFrames() < 0 {
		addf("physical memory oversubscribed: %d free frames", vm.Phys.FreeFrames())
	}
	if err := vm.Corrupt(); err != nil {
		addf("latched corruption: %v", err)
	}

	for _, h := range heaps {
		checkHeap(h, addf)
	}
	return v
}

// checkHeap validates one heap's object table against its regions: sizes
// and counts against the heap's counters, every live object inside its
// region's used span, and region object lists naming every live object
// exactly once.
func checkHeap(h *heap.Heap, addf func(string, ...any)) {
	owner := h.AS.Owner
	var liveBytes, liveCount int64
	h.ForEachLiveObject(func(id heap.ObjectID, o heap.Object) {
		liveCount++
		liveBytes += int64(o.Size)
		r := h.RegionByID(o.Region)
		if r.Free() {
			addf("%s: live object %d in freed region %d", owner, id, o.Region)
			return
		}
		if o.Addr < r.Base || o.Addr+int64(o.Size) > r.Base+r.Used {
			addf("%s: object %d spans [%d,%d) outside region %d's used span [%d,%d)",
				owner, id, o.Addr, o.Addr+int64(o.Size), r.ID, r.Base, r.Base+r.Used)
		}
	})
	if liveBytes != h.LiveBytes() {
		addf("%s: heap says %d live bytes, object walk found %d", owner, h.LiveBytes(), liveBytes)
	}
	if liveCount != h.LiveObjects() {
		addf("%s: heap says %d live objects, object walk found %d", owner, h.LiveObjects(), liveCount)
	}
	var listed int64
	h.Regions(func(r *heap.Region) {
		if r.Used > units.RegionSize {
			addf("%s: region %d overfull (%d bytes used)", owner, r.ID, r.Used)
		}
		for _, id := range r.Objects {
			if h.Live(id) && h.RegionID(id) == r.ID {
				listed++
			}
		}
	})
	if listed != liveCount {
		addf("%s: region object lists name %d live objects, the table holds %d", owner, listed, liveCount)
	}
}
