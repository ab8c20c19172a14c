package apps

import (
	"fmt"
	"time"

	"fleetsim/internal/heap"
	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
	"fleetsim/internal/xrand"
)

// chain is one unit of deep data: a linked list of objects hanging off a
// view at depth ≥ 3. Chains live and die as units, which keeps the
// workload's liveness bookkeeping exact.
type chain struct {
	view heap.ObjectID // owning view
	slot int           // reference slot within the view
	ids  []heap.ObjectID
}

// App is a running app instance: a Java heap, a native segment and the
// behavioural state the workload generator needs.
type App struct {
	Profile
	R  *xrand.Rand
	H  *heap.Heap
	VM *vmem.Manager

	// NativeAS is the app's non-Java memory (code, surfaces, malloc).
	NativeAS   *mem.AddressSpace
	nativeBase int64
	nativeSize int64

	// OnAlloc is the policy hook run after every allocation (Marvin pins
	// pages here).
	OnAlloc func(id heap.ObjectID)

	root       heap.ObjectID
	activities []heap.ObjectID
	views      []heap.ObjectID // depth-2 structure: the NRO population
	chains     []chain         // deep data: the cold-candidate population
	scratch    heap.ObjectID   // young-garbage nursery container

	// Recency pools for FYO behaviour. recentNear are near-root objects
	// allocated recently (NRO ∩ FYO); recentDeep are deep ones (FYO only).
	recentNear []heap.ObjectID
	recentDeep []heap.ObjectID

	// bgContainer parents background allocations; bgWS is the working set
	// the app keeps touching while backgrounded.
	bgContainer heap.ObjectID
	bgWS        []heap.ObjectID

	viewSlots map[heap.ObjectID]int // next free ref slot per view

	// dataBytes tracks the bytes of *reachable* workload data (structure +
	// chains). heap.LiveBytes() also counts not-yet-collected garbage, so
	// steady-state sizing must use this instead.
	dataBytes int64

	// err latches the first memory fault (ErrOOM, …) hit inside the
	// current public call; loops bail once it is set so a doomed app does
	// not spin through its whole tick budget. Each public method returns
	// and clears it.
	err error
}

const recentPoolCap = 4096

// NewApp creates the process: address spaces exist, nothing is built yet.
func NewApp(p Profile, r *xrand.Rand, vm *vmem.Manager) *App {
	as := mem.NewAddressSpace(p.Name + "-heap")
	a := &App{
		Profile:   p,
		R:         r,
		H:         heap.New(as, vm),
		VM:        vm,
		NativeAS:  mem.NewAddressSpace(p.Name + "-native"),
		viewSlots: make(map[heap.ObjectID]int),
	}
	a.nativeSize = p.NativeBytes()
	if a.nativeSize > 0 {
		a.nativeBase = a.NativeAS.Reserve(a.nativeSize)
	}
	return a
}

// note accumulates a (stall, err) pair: the first error is latched, the
// stall always counts (the thread paid it before the fault surfaced).
func (a *App) note(stall time.Duration, err error) time.Duration {
	if err != nil && a.err == nil {
		a.err = err
	}
	return stall
}

// takeErr returns and clears the latched fault for a public method's
// return value.
func (a *App) takeErr() error {
	err := a.err
	a.err = nil
	return err
}

// alloc allocates one object, runs the policy hook and returns (id, stall).
func (a *App) alloc(size int32, epoch heap.Epoch, now time.Duration) (heap.ObjectID, time.Duration) {
	id, stall, err := a.H.Alloc(size, epoch, now)
	stall = a.note(stall, err)
	if id != heap.NilObject && a.OnAlloc != nil {
		a.OnAlloc(id)
	}
	return id, stall
}

// BuildInitial constructs the app's steady-state object graph and touches
// its native memory — the "start and use it in the foreground" phase of the
// paper's experiments. Returns the total fault stall (part of cold-launch
// time) and the first memory fault hit, if any (the caller decides whether
// the process survives).
func (a *App) BuildInitial(now time.Duration) (time.Duration, error) {
	var stall time.Duration
	r, s := a.alloc(64, heap.EpochForeground, now)
	a.root = r
	stall += s
	if a.err != nil {
		return stall, a.takeErr()
	}
	a.H.AddRoot(a.root)

	sc, s2 := a.alloc(64, heap.EpochForeground, now)
	a.scratch = sc
	stall += s2
	stall += a.note(a.H.AddRef(a.root, a.scratch, now))

	bc, s3 := a.alloc(64, heap.EpochForeground, now)
	a.bgContainer = bc
	stall += s3
	stall += a.note(a.H.AddRef(a.root, a.bgContainer, now))

	// Near-root structure: activities (depth 1) and views (depth 2) sized
	// so that NRO(D=2) lands near the paper's ~10% of heap bytes.
	const nActivities = 8
	nroBudget := a.JavaHeapBytes / 10
	for i := 0; i < nActivities && a.err == nil; i++ {
		act, s := a.alloc(128, heap.EpochForeground, now)
		stall += s
		stall += a.note(a.H.AddRef(a.root, act, now))
		a.activities = append(a.activities, act)
	}
	var nroBytes int64
	for nroBytes < nroBudget && a.err == nil {
		v, s := a.alloc(a.Sizes.Sample(a.R), heap.EpochForeground, now)
		stall += s
		act := a.activities[a.R.Intn(len(a.activities))]
		stall += a.note(a.H.AddRef(act, v, now))
		a.views = append(a.views, v)
		nroBytes += int64(a.H.Size(v))
	}
	a.dataBytes += nroBytes

	// Deep bulk data until the heap reaches its steady-state size.
	for a.dataBytes < a.JavaHeapBytes && a.err == nil {
		s, bytes := a.growChain(now, heap.EpochForeground)
		stall += s
		a.dataBytes += bytes
	}

	// Touch the native segment once (initialisation), making it resident
	// until memory pressure says otherwise.
	if a.nativeSize > 0 && a.err == nil {
		stall += a.note(a.VM.TouchRange(a.NativeAS, a.nativeBase, a.nativeSize, true))
	}
	return stall, a.takeErr()
}

// growChain adds one new chain of deep objects under a random view,
// returning the fault stall and the bytes allocated.
func (a *App) growChain(now time.Duration, epoch heap.Epoch) (time.Duration, int64) {
	var stall time.Duration
	var bytes int64
	view := a.views[a.R.Intn(len(a.views))]
	length := 1 + a.R.Intn(6)
	c := chain{view: view, slot: a.nextSlot(view), ids: make([]heap.ObjectID, 0, length)}
	parent := view
	for i := 0; i < length; i++ {
		size := a.Sizes.Sample(a.R)
		id, s := a.alloc(size, epoch, now)
		stall += s
		bytes += int64(size)
		if i == 0 {
			stall += a.note(a.H.SetRef(view, c.slot, id, now))
		} else {
			stall += a.note(a.H.AddRef(parent, id, now))
		}
		c.ids = append(c.ids, id)
		parent = id
	}
	a.chains = append(a.chains, c)
	return stall, bytes
}

func (a *App) nextSlot(view heap.ObjectID) int {
	s := a.viewSlots[view]
	a.viewSlots[view] = s + 1
	return s
}

// dropChain makes a random chain unreachable (garbage) and forgets it.
func (a *App) dropChain(now time.Duration) time.Duration {
	if len(a.chains) == 0 {
		return 0
	}
	i := a.R.Intn(len(a.chains))
	c := a.chains[i]
	for _, id := range c.ids {
		a.dataBytes -= int64(a.H.Size(id))
	}
	stall := a.note(a.H.SetRef(c.view, c.slot, heap.NilObject, now))
	a.chains[i] = a.chains[len(a.chains)-1]
	a.chains = a.chains[:len(a.chains)-1]
	// The recency pools may still name the dropped objects; readers guard
	// with Live() (filtering the pools on every drop is too expensive).
	return stall
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func pushRecent(pool []heap.ObjectID, id heap.ObjectID) []heap.ObjectID {
	pool = append(pool, id)
	if len(pool) > recentPoolCap {
		pool = pool[len(pool)-recentPoolCap:]
	}
	return pool
}

// ForegroundTick advances dt of foreground usage: allocation churn (young
// garbage + surviving structure/data), object accesses, native working-set
// touches. Returns the mutator's synchronous fault stall for the tick and
// the first memory fault, if any.
func (a *App) ForegroundTick(now, dt time.Duration) (time.Duration, error) {
	var stall time.Duration
	// Young garbage from the previous tick dies now.
	stall += a.note(a.H.ClearRefs(a.scratch, now))

	budget := int64(float64(a.FgAllocRate) * dt.Seconds())
	for spent := int64(0); spent < budget && a.err == nil; {
		size := a.Sizes.Sample(a.R)
		spent += int64(size)
		if a.R.Bool(a.GarbageFrac) {
			id, s := a.alloc(size, heap.EpochForeground, now)
			stall += s
			stall += a.note(a.H.AddRef(a.scratch, id, now))
			continue
		}
		// Survivor: occasionally new near-root structure, else deep data.
		if a.R.Bool(0.15) {
			id, s := a.alloc(size, heap.EpochForeground, now)
			stall += s
			act := a.activities[a.R.Intn(len(a.activities))]
			stall += a.note(a.H.AddRef(act, id, now))
			a.views = append(a.views, id)
			a.recentNear = pushRecent(a.recentNear, id)
			a.dataBytes += int64(size)
		} else {
			s, bytes := a.growChain(now, heap.EpochForeground)
			stall += s
			spent += bytes - int64(size) // first node's size already counted
			a.dataBytes += bytes
			c := a.chains[len(a.chains)-1]
			for _, cid := range c.ids {
				a.recentDeep = pushRecent(a.recentDeep, cid)
			}
		}
		// Keep the reachable data near its steady state by dropping old
		// chains.
		for a.dataBytes > a.JavaHeapBytes && len(a.chains) > 8 {
			stall += a.dropChain(now)
		}
	}

	// Accesses: recency-skewed over structure, recent and bulk pools.
	for i := 0; i < a.FgAccessesPerTick && a.err == nil; i++ {
		id := a.sampleAccess()
		if id != heap.NilObject {
			stall += a.note(a.H.Access(id, a.R.Bool(0.3), now))
		}
	}

	// Native working set: the launch-critical head of the segment stays
	// warm, and a rotating random window models content churn (new
	// bitmaps, decoded media) across the rest.
	if a.nativeSize > 0 && a.err == nil {
		head := int64(float64(a.nativeSize) * a.LaunchNativeFrac)
		if head > 0 {
			chunk := head / 4
			if chunk < units.PageSize {
				chunk = units.PageSize
			}
			off := a.R.Int63n(head)
			if off+chunk > head {
				off = head - chunk
			}
			if off < 0 {
				off = 0
			}
			stall += a.note(a.VM.TouchRange(a.NativeAS, a.nativeBase+off, chunk, false))
		}
		churn := int64(float64(a.nativeSize) * a.NativeWSFrac)
		chunk := 4 * units.PageSize
		if churn > chunk && a.nativeSize-head-chunk > 0 {
			// Rotate within a churn area sized by NativeWSFrac: content
			// turnover without touching the whole segment every session.
			off := head + a.R.Int63n(min64(churn, a.nativeSize-head-chunk))
			stall += a.note(a.VM.TouchRange(a.NativeAS, a.nativeBase+off, chunk, false))
		}
	}
	return stall, a.takeErr()
}

// sampleAccess picks an object to touch with a foreground access pattern.
func (a *App) sampleAccess() heap.ObjectID {
	switch {
	case a.R.Bool(0.4) && len(a.views) > 0:
		// Hot structure access, biased to a stable subset.
		return a.views[a.R.Zipf(len(a.views), 1.3)]
	case a.R.Bool(0.5) && len(a.recentDeep) > 0:
		id := a.recentDeep[len(a.recentDeep)-1-a.R.Zipf(len(a.recentDeep), 1.2)]
		if a.H.Live(id) {
			return id
		}
		return heap.NilObject
	case len(a.chains) > 0:
		c := a.chains[a.R.Intn(len(a.chains))]
		return c.ids[a.R.Intn(len(c.ids))]
	case len(a.views) > 0:
		return a.views[a.R.Intn(len(a.views))]
	}
	return heap.NilObject
}

// EnterBackground snapshots the background working set: the small set of
// objects the app keeps using while cached (recent allocations + a few
// views).
func (a *App) EnterBackground(now time.Duration) {
	a.bgWS = a.bgWS[:0]
	for i := 0; i < a.BgWSObjects; i++ {
		var id heap.ObjectID
		switch {
		case len(a.recentDeep) > 0 && i%2 == 0:
			id = a.recentDeep[len(a.recentDeep)-1-a.R.Zipf(len(a.recentDeep), 1.3)]
		case len(a.views) > 0:
			id = a.views[a.R.Intn(len(a.views))]
		}
		if id != heap.NilObject && a.H.Live(id) {
			a.bgWS = append(a.bgWS, id)
		}
	}
}

// BackgroundTick advances dt of cached-state behaviour: a trickle of
// allocations under the background container (mostly churn) and touches of
// the background working set. A couple of reference writes land on
// foreground objects, exercising the BGC write barrier.
func (a *App) BackgroundTick(now, dt time.Duration) (time.Duration, error) {
	var stall time.Duration
	budget := int64(float64(a.BgAllocRate) * dt.Seconds())
	var prev heap.ObjectID
	for spent := int64(0); spent < budget && a.err == nil; {
		size := a.Sizes.Sample(a.R)
		spent += int64(size)
		id, s := a.alloc(size, heap.EpochBackground, now)
		stall += s
		if a.R.Bool(0.6) || prev == heap.NilObject {
			if a.R.Bool(0.5) {
				stall += a.note(a.H.AddRef(a.bgContainer, id, now))
			} // else: garbage immediately
		} else {
			stall += a.note(a.H.AddRef(prev, id, now))
		}
		prev = id
	}
	// Periodically reset the background container so BGO churn is
	// collectable (most BGO die young, §4.1).
	if a.R.Bool(0.2) {
		stall += a.note(a.H.ClearRefs(a.bgContainer, now))
	}
	for i := 0; i < a.BgAccessesPerTick && len(a.bgWS) > 0 && a.err == nil; i++ {
		id := a.bgWS[a.R.Intn(len(a.bgWS))]
		if a.H.Live(id) {
			stall += a.note(a.H.Access(id, a.R.Bool(0.2), now))
		}
	}
	return stall, a.takeErr()
}

// LaunchSet builds the object list a hot launch will re-access, composed
// per the profile's LaunchMix over the app's pools.
func (a *App) LaunchSet() []heap.ObjectID {
	count := int(float64(a.H.LiveObjects()) * a.LaunchAccessFrac)
	if count < 1 {
		count = 1
	}
	set := make([]heap.ObjectID, 0, count)
	take := func(pool []heap.ObjectID, n int, recent bool) {
		for i := 0; i < n && len(pool) > 0; i++ {
			var idx int
			if recent {
				// Resumed tasks touch what they were just working on:
				// bias hard toward the newest entries.
				window := len(pool)/4 + 1
				idx = len(pool) - 1 - a.R.Intn(window)
			} else {
				idx = a.R.Intn(len(pool))
			}
			id := pool[idx]
			if a.H.Live(id) {
				set = append(set, id)
			}
		}
	}
	mix := a.Mix
	// Old near-root structure (NRO only).
	nearOld := a.views
	take(nearOld, int(float64(count)*mix.NearRootOnly), false)
	// Recent deep allocations (FYO only).
	take(a.recentDeep, int(float64(count)*mix.YoungOnly), true)
	// Recent near-root (NRO ∩ FYO).
	take(a.recentNear, int(float64(count)*mix.Both), true)
	// Cold bulk for the remainder.
	rest := count - len(set)
	for i := 0; i < rest && len(a.chains) > 0; i++ {
		c := a.chains[a.R.Intn(len(a.chains))]
		set = append(set, c.ids[a.R.Intn(len(c.ids))])
	}
	return set
}

// HotLaunchAccess touches the launch set and the launch share of native
// memory, returning the total synchronous stall — the swap-induced part of
// the hot-launch time — and the first memory fault, if any.
func (a *App) HotLaunchAccess(now time.Duration) (time.Duration, error) {
	var stall time.Duration
	for _, id := range a.LaunchSet() {
		if a.err != nil {
			break
		}
		stall += a.note(a.H.Access(id, false, now))
	}
	if a.nativeSize > 0 && a.LaunchNativeFrac > 0 && a.err == nil {
		n := int64(float64(a.nativeSize) * a.LaunchNativeFrac)
		stall += a.note(a.VM.TouchRange(a.NativeAS, a.nativeBase, n, false))
	}
	return stall, a.takeErr()
}

// LaunchAllocBurst performs the allocation burst of a (hot or cold) launch.
func (a *App) LaunchAllocBurst(now time.Duration) (time.Duration, error) {
	var stall time.Duration
	for spent := int64(0); spent < a.LaunchAllocBytes && a.err == nil; {
		size := a.Sizes.Sample(a.R)
		spent += int64(size)
		id, s := a.alloc(size, heap.EpochForeground, now)
		stall += s
		if a.R.Bool(0.5) {
			stall += a.note(a.H.AddRef(a.scratch, id, now))
		} else {
			act := a.activities[a.R.Intn(len(a.activities))]
			stall += a.note(a.H.AddRef(act, id, now))
			a.views = append(a.views, id)
			a.recentNear = pushRecent(a.recentNear, id)
			a.dataBytes += int64(size)
		}
	}
	return stall, a.takeErr()
}

// DataBytes returns the app's reachable workload-data size.
func (a *App) DataBytes() int64 { return a.dataBytes }

// Views returns the near-root structure (analysis helpers).
func (a *App) Views() []heap.ObjectID { return a.views }

// Root returns the root object.
func (a *App) Root() heap.ObjectID { return a.root }

// RecentDeep returns the recent deep-allocation pool.
func (a *App) RecentDeep() []heap.ObjectID { return a.recentDeep }

// ChainObjects returns all current deep-data object ids (flattened).
func (a *App) ChainObjects() []heap.ObjectID {
	var out []heap.ObjectID
	for _, c := range a.chains {
		out = append(out, c.ids...)
	}
	return out
}

// FootprintBytes is the app's total resident+swapped memory.
func (a *App) FootprintBytes() int64 {
	return a.H.AS.FootprintBytes() + a.NativeAS.FootprintBytes()
}

// ResidentBytes is the app's resident memory.
func (a *App) ResidentBytes() int64 {
	return a.H.AS.ResidentBytes() + a.NativeAS.ResidentBytes()
}

// ReleaseAll frees every page the app holds (process kill).
func (a *App) ReleaseAll() {
	a.VM.ReleaseSpace(a.H.AS)
	a.VM.ReleaseSpace(a.NativeAS)
}

func (a *App) String() string {
	return fmt.Sprintf("%s[heap=%s native=%s]", a.Name,
		units.Bytes(a.H.LiveBytes()), units.Bytes(a.nativeSize))
}
