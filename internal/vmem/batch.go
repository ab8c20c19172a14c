package vmem

import (
	"time"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
)

// Batch accumulates the page touches of one logical event — a GC
// evacuation pass, a bulk swap-out — so the manager can apply them in one
// walk instead of re-entering the page-state machine per object access.
// Evacuation writes dozens of sub-page objects into each destination page;
// the per-object path paid a Touch (page-state switch, LRU update, kswapd
// balance check) for every one of them. ApplyBatch collapses each page's
// consecutive touches into one application: a single fault/LRU insertion,
// the touch multiplicity replayed in O(1) (the LRU referenced/active
// transitions saturate), and one balance check per page instead of one per
// object.
//
// A batch is bound to one address space, so its records carry no pointer:
// the access buffer is noscan memory Go's collector skips. ApplyBatch
// resets the batch for reuse.
type Batch struct {
	as   *mem.AddressSpace
	accs []access
}

// NewBatch returns an empty batch of touches to as.
func NewBatch(as *mem.AddressSpace) *Batch { return &Batch{as: as} }

// access is one recorded Touch: a byte range of the batch's address space.
type access struct {
	addr, size int64
	write      bool
	pin        bool
}

// Touch records an access to [addr, addr+size).
func (b *Batch) Touch(addr, size int64, write bool) {
	if size <= 0 {
		return
	}
	b.accs = append(b.accs, access{addr: addr, size: size, write: write})
}

// TouchPin records a write that must also pin its pages (Marvin's
// unevictable destination regions). Pinning happens during ApplyBatch as
// each page is applied — before any later page's fault can trigger a
// reclaim — so reclaim cannot steal an earlier destination page
// mid-batch, matching the pin-as-you-copy behaviour of the per-object
// path.
func (b *Batch) TouchPin(addr, size int64, write bool) {
	if size <= 0 {
		return
	}
	b.accs = append(b.accs, access{addr: addr, size: size, write: write, pin: true})
}

// Len returns the number of recorded accesses pending.
func (b *Batch) Len() int { return len(b.accs) }

// Reset drops pending accesses, keeping the buffer.
func (b *Batch) Reset() { b.accs = b.accs[:0] }

// pageRun is the collapsed form of consecutive recorded touches of one
// page: how many accesses hit it and whether any wrote or pinned.
type pageRun struct {
	idx   int64
	count int
	write bool
	pin   bool
}

// ApplyBatch services every touch recorded in b in one pass. Accesses are
// walked in record order and consecutive touches of the same page collapse
// into one application, so the observable page-state sequence — fault
// order, LRU insertion order, referenced/active promotions, dirty and pin
// bits — is the same as if each access had called Touch itself, while the
// page-table work is done once per page run instead of once per access.
//
// The returned stall is the total synchronous fault time; the error is the
// first vmem error hit (later runs are still applied, mirroring the
// per-object loop it replaces where each object's touch was independent).
// The batch is reset afterwards.
func (m *Manager) ApplyBatch(b *Batch) (time.Duration, error) {
	var stall time.Duration
	var firstErr error
	var run pageRun
	flush := func() {
		if run.count == 0 {
			return
		}
		io, err := m.applyRun(b.as, &run)
		stall += io
		if err != nil && firstErr == nil {
			firstErr = err
		}
		run.count = 0
	}
	for i := range b.accs {
		a := &b.accs[i]
		first := units.PageIndex(a.addr)
		last := units.PageIndex(a.addr + a.size - 1)
		for pi := first; pi <= last; pi++ {
			if run.count > 0 && run.idx == pi {
				run.count++
				run.write = run.write || a.write
				run.pin = run.pin || a.pin
				continue
			}
			flush()
			run = pageRun{idx: pi, count: 1, write: a.write, pin: a.pin}
		}
	}
	flush()
	b.Reset()
	return stall, firstErr
}

// applyRun applies one page's collapsed touches: the first via the full
// page-state machine (fault-in, LRU insert, dirty bit), the remaining
// count-1 as resident re-touches — capped at three, where the LRU
// referenced/active state saturates — followed by one kswapd balance
// check. The balance outcome is identical to balancing right after the
// fault, since re-touches move no frames. The pin bit is set even when the
// touch failed (the per-object path pinned unconditionally after its
// touch attempt).
func (m *Manager) applyRun(as *mem.AddressSpace, run *pageRun) (time.Duration, error) {
	p := as.PageAt(run.idx)
	stall, err := m.touchPage(p, run.write)
	if run.pin {
		p.Pinned = true
	}
	if err != nil {
		return stall, err
	}
	extra := run.count - 1
	if extra > 3 {
		extra = 3
	}
	for i := 0; i < extra; i++ {
		m.lru.touched(p)
	}
	m.balance()
	return stall, nil
}
