// Package marvin implements the Marvin baseline [32] the paper compares
// against (Table 1): a bookmarking GC co-designed with object-granularity
// swap.
//
// Mechanisms modelled, per §2.2/§3.1/§6 of the Fleet paper:
//
//   - Object-granularity swap with a large-object threshold (1024 B in the
//     evaluation): only objects at least the threshold size are ever
//     swapped; small objects — the majority in Android apps — stay
//     resident forever. Marvin manages the Java heap's residency itself,
//     so ordinary heap pages are pinned against the kernel's page LRU.
//
//   - Bookmarking: before an object is swapped out, its outgoing
//     references are recorded in a resident stub. The GC traces through
//     stubs without touching (faulting) the swapped object.
//
//   - Object-LRU selection that is agnostic to hot-launch needs: the
//     least-recently-used eligible objects are evicted first, whether or
//     not the next launch will want them.
//
//   - Swap amplification: analysis is per object but IO is per page, so a
//     faulted object pays at least one full page of flash IO even when it
//     is smaller than a page. (With StrictObjectSlots, every swapped
//     object additionally occupies private page-aligned storage; by
//     default Marvin batches evicted objects compactly, as the real
//     system writes them in bulk.)
//
//   - Consistency stop-the-world: keeping stubs and objects coherent
//     costs a pause proportional to the bookmarked population on every
//     collection (§3.1 drawback i).
package marvin

import (
	"sort"
	"time"

	"fleetsim/internal/gc"
	"fleetsim/internal/heap"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// Cost-model constants for Marvin-specific overheads.
const (
	// StubSTWPerObject is the per-bookmarked-object share of the
	// consistency stop-the-world pause paid at each GC.
	StubSTWPerObject = 3 * time.Microsecond
	// SwapOutSTWPerObject is the pause share for newly evicting an object
	// (creating its stub under STW).
	SwapOutSTWPerObject = 1 * time.Microsecond
	// StubBytesBase is the resident footprint of one stub record.
	StubBytesBase = 32
	// StubBytesPerRef is the per-reference footprint of a stub.
	StubBytesPerRef = 4
)

// DefaultThreshold is the large-object threshold used in the paper's
// evaluation (§6, "we set the threshold parameter to 1024 bytes").
const DefaultThreshold int32 = 1024

// Marvin manages one app's heap under the Marvin policy.
type Marvin struct {
	h  *heap.Heap
	vm *vmem.Manager

	// Threshold is the large-object threshold: smaller objects are never
	// swapped.
	Threshold int32

	// ColdWindow is how long an eligible object must go untouched before
	// the object LRU may evict it.
	ColdWindow time.Duration

	// StrictObjectSlots gives every swapped object private page-aligned
	// storage (maximum swap amplification). Off by default: eviction
	// batches objects compactly.
	StrictObjectSlots bool

	// bookmarked tracks objects whose data lives in (object) swap and
	// whose stub is resident. Keyed by ObjectID; entries are dropped when
	// the object is faulted back or dies.
	bookmarked map[heap.ObjectID]struct{}

	stubBytes int64
}

// New creates a Marvin instance for the heap.
func New(h *heap.Heap, vm *vmem.Manager) *Marvin {
	return &Marvin{
		h:          h,
		vm:         vm,
		Threshold:  DefaultThreshold,
		ColdWindow: 5 * time.Second,
		bookmarked: make(map[heap.ObjectID]struct{}),
	}
}

// BookmarkedObjects returns how many objects currently live in object swap.
func (m *Marvin) BookmarkedObjects() int { return len(m.bookmarked) }

// StubBytes returns the resident stub footprint.
func (m *Marvin) StubBytes() int64 { return m.stubBytes }

// PinAllocation pins the pages of a freshly allocated object: Marvin's heap
// does not participate in the kernel page LRU (residency is managed at
// object granularity by Marvin itself). The runtime calls this after every
// Alloc, while the fresh pages are still resident.
func (m *Marvin) PinAllocation(id heap.ObjectID) {
	m.vm.Pin(m.h.AS, m.h.Addr(id), int64(m.h.Size(id)))
}

// NoteAccess must be called when a mutator touches an object: a bookmarked
// object faulting back in sheds its bookmark (the stub is reconciled) and
// its pages are re-pinned.
func (m *Marvin) NoteAccess(id heap.ObjectID) {
	if _, ok := m.bookmarked[id]; !ok {
		return
	}
	delete(m.bookmarked, id)
	m.stubBytes -= m.stubSize(id)
	// The page fault itself was paid by heap.Access; re-pin so the kernel
	// LRU leaves the revived object alone.
	m.vm.Pin(m.h.AS, m.h.Addr(id), int64(m.h.Size(id)))
}

// stubSize is the resident size of id's reference stub.
func (m *Marvin) stubSize(id heap.ObjectID) int64 {
	return StubBytesBase + StubBytesPerRef*int64(len(m.h.Refs(id)))
}

// SwapOutCold is Marvin's proactive reclaimer: evict up to budgetBytes of
// the least-recently-used eligible objects (live, at least Threshold bytes,
// idle past ColdWindow, not already bookmarked, not a root). It returns the
// number of objects evicted, the bytes reclaimed from DRAM, and the STW
// pause the eviction charged (stub creation is a stop-the-world operation,
// §3.1). Write IO is charged asynchronously via the vmem stats.
func (m *Marvin) SwapOutCold(now time.Duration, budgetBytes int64) (objects int, bytes int64, pause time.Duration) {
	h := m.h
	type cand struct {
		id   heap.ObjectID
		last time.Duration
	}
	var cands []cand
	h.Regions(func(r *heap.Region) {
		if r.Kind == heap.KindCold {
			return // already a swap region
		}
		for _, id := range r.Objects {
			if !h.Live(id) || h.RegionID(id) != r.ID || h.Size(id) < m.Threshold {
				continue
			}
			if h.IsRoot(id) {
				continue
			}
			if _, done := m.bookmarked[id]; done {
				continue
			}
			last := h.LastAccess(id)
			if now-last < m.ColdWindow {
				continue
			}
			cands = append(cands, cand{id, last})
		}
	})
	// Object LRU: oldest access first.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].last != cands[j].last {
			return cands[i].last < cands[j].last
		}
		return cands[i].id < cands[j].id
	})

	ev := h.NewEvacuator()
	ev.PageAlign = m.StrictObjectSlots
	var moved []*heap.Region
	for _, c := range cands {
		if bytes >= budgetBytes {
			break
		}
		// The old copy's pages stay pinned until the next RunGC compacts
		// the from-regions away (they may share pages with resident
		// neighbours); DRAM is therefore reclaimed at GC, as in Marvin.
		ev.Copy(c.id, heap.KindCold)
		m.bookmarked[c.id] = struct{}{}
		m.stubBytes += m.stubSize(c.id)
		objects++
		bytes += int64(h.Size(c.id))
		pause += SwapOutSTWPerObject
	}
	// Materialize the copies' pages before advising them out: AdviseCold
	// only takes resident pages.
	ev.Finish()
	moved = ev.ToRegions()
	// Push every swap region's pages out at object/page granularity.
	for _, r := range moved {
		m.vm.AdviseCold(h.AS, r.Base, units.RegionSize)
	}
	return objects, bytes, pause
}

// IsBookmarked reports whether the object's data currently lives in object
// swap.
func (m *Marvin) IsBookmarked(id heap.ObjectID) bool {
	_, ok := m.bookmarked[id]
	return ok
}

// RunGC is Marvin's bookmarking collection: a full trace that consults
// stubs for swapped objects (never faulting them), followed by a compacting
// evacuation of the resident heap. Swap regions are collected in place:
// dead bookmarked objects release their swap pages without IO.
func (m *Marvin) RunGC(now time.Duration) gc.Result {
	h := m.h
	res := gc.Result{Kind: gc.KindBookmark}

	seeds := h.Roots()
	res.PauseSTW += gc.FlipPause + time.Duration(len(seeds))*gc.RootScanCPU
	// Consistency STW: reconcile every stub with its object state.
	res.PauseSTW += time.Duration(len(m.bookmarked)) * StubSTWPerObject

	h.BeginTrace()
	st := gc.Trace(h, seeds, gc.TraceOpts{
		Now: now,
		ShouldTouch: func(id heap.ObjectID) bool {
			_, swapped := m.bookmarked[id]
			return !swapped
		},
	})
	res.ObjectsTraced = st.ObjectsTraced
	res.BytesTraced = st.BytesTraced
	res.GCThreadCPU += st.CPU
	res.GCFaultStall += st.FaultStall

	// Partition regions: ordinary regions are evacuated and freed; swap
	// regions (KindCold, page-aligned objects) are collected in place.
	var ordinary, swapRegions []*heap.Region
	h.Regions(func(r *heap.Region) {
		if r.Kind == heap.KindCold {
			swapRegions = append(swapRegions, r)
		} else {
			ordinary = append(ordinary, r)
		}
	})

	ev := h.NewEvacuator()
	// The compacted resident heap is unevictable: pin destination pages as
	// they are written so concurrent reclaim cannot steal them before the
	// cycle ends.
	ev.PinDest = true
	for _, r := range ordinary {
		for _, id := range r.Objects {
			if !h.Live(id) || h.RegionID(id) != r.ID {
				continue
			}
			size := int64(h.Size(id))
			if h.Marked(id) {
				ev.Copy(id, heap.KindNormal)
				res.ObjectsCopied++
				res.BytesCopied += size
				res.GCThreadCPU += gc.CopyCPU + vmem.DRAMCost(2*size)
			} else {
				res.ObjectsFreed++
				res.BytesFreed += size
				h.KillObject(id)
			}
		}
	}
	// Fault the compacted copies in (pinned as written) before the
	// from-regions release their frames.
	ev.Finish()
	for _, r := range ordinary {
		h.FreeRegion(r)
		res.RegionsFreed++
	}

	// Collect swap regions in place: dead bookmarked objects are killed
	// (their pages free when the whole region empties — swap-space
	// fragmentation, as in the real system); objects that faulted back
	// since the last GC are compacted into the resident heap. Under
	// StrictObjectSlots each object's private pages are released
	// individually.
	for _, r := range swapRegions {
		liveLeft := 0
		for _, id := range r.Objects {
			if !h.Live(id) || h.RegionID(id) != r.ID {
				continue
			}
			size := int64(h.Size(id))
			slot := units.PagesFor(size) * units.PageSize
			slotBase := h.Addr(id)
			if !h.Marked(id) {
				// Dead: drop stub (if still bookmarked).
				if _, ok := m.bookmarked[id]; ok {
					delete(m.bookmarked, id)
					m.stubBytes -= m.stubSize(id)
				}
				if m.StrictObjectSlots {
					m.vm.ReleaseRange(h.AS, slotBase, slot)
				}
				res.ObjectsFreed++
				res.BytesFreed += size
				h.KillObject(id)
				continue
			}
			if _, swapped := m.bookmarked[id]; swapped {
				liveLeft++ // stays bookmarked in place
				continue
			}
			// Revived (resident) object: compact it back.
			ev.Copy(id, heap.KindNormal)
			res.ObjectsCopied++
			res.BytesCopied += size
			res.GCThreadCPU += gc.CopyCPU + vmem.DRAMCost(2*size)
			if m.StrictObjectSlots {
				m.vm.Unpin(h.AS, slotBase, slot)
				m.vm.ReleaseRange(h.AS, slotBase, slot)
			}
		}
		if liveLeft == 0 {
			h.FreeRegion(r)
			res.RegionsFreed++
		}
	}

	ev.Finish()
	res.GCFaultStall += ev.Stall
	// The newly compacted resident heap is pinned again (Marvin owns its
	// residency).
	for _, r := range ev.ToRegions() {
		m.vm.Pin(h.AS, r.Base, r.Used)
	}

	res.PauseSTW += gc.FinalPause
	h.NoteGCComplete()
	return res
}

// ResidentOverheadBytes reports Marvin's extra resident memory (stubs).
func (m *Marvin) ResidentOverheadBytes() int64 { return m.stubBytes }
