// The §7.2 leg executor. A leg is one android.System driven through the
// hot-launch protocol; Fig. 3, Figs. 13/15/16, §7.4's pressure runs and
// every extension study are built from legs, and many of them share legs
// (Fig. 15 is Fig. 13's three legs read differently; the ablations' default
// rows are Fig. 13's Fleet leg). runLeg answers each distinct leg once per
// process: a leg is a pure function of its content key, so the executor is
// a pure cache. Three tiers answer a request — the in-process memo
// (singleflight, so concurrent pool workers asking for one key wait for a
// single computation; LRU-bounded), then the installed checkpoint store
// (durable across processes, so an interrupted sweep resumes with only the
// missing legs), then a fresh run. Every answer is the same legSummary:
// fresh, reused and restored legs reduce, publish telemetry and read
// bit-identically.

package experiments

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/metrics"
	"fleetsim/internal/snapshot"
	"fleetsim/internal/telemetry"
)

var (
	ckptMu    sync.Mutex
	ckptStore *snapshot.Store
)

// SetCheckpointStore installs (or, with nil, removes) the process-wide
// checkpoint store the leg executor records its legs in. cmd/fleetsim
// wires this to -checkpoint-dir.
func SetCheckpointStore(st *snapshot.Store) {
	ckptMu.Lock()
	ckptStore = st
	ckptMu.Unlock()
}

// CheckpointStore returns the installed store (nil when checkpointing is
// off).
func CheckpointStore() *snapshot.Store {
	ckptMu.Lock()
	defer ckptMu.Unlock()
	return ckptStore
}

// SweepCampaignKey canonically encodes the Params that determine every
// figure sweep's results, for use as a checkpoint campaign key.
func SweepCampaignKey(p Params) string {
	return fmt.Sprintf("sweep/v1|scale=%d|rounds=%d|use=%s|apps=%d|seed=%d",
		p.Scale, p.Rounds, p.UseTime, p.PressureApps, p.Seed)
}

// legSummary is the serializable outcome of one leg.
type legSummary struct {
	// Kills is the run's lmkd kill count.
	Kills int
	// ColdCount / HotCount tally launch kinds over measured apps.
	ColdCount, HotCount int
	// All holds every switch latency (ms) per measured app, cold
	// relaunches included; HotOnly keeps only true hot launches (the app
	// was cached).
	All, HotOnly map[string]*metrics.Sample
	// Telemetry is what the run publishes to the sim-telemetry registry.
	Telemetry android.TelemetryRecord
}

// clone deep-copies the samples (in their current order) so no two
// readers ever share one; the telemetry record is read-only and shared.
func (ls *legSummary) clone() *legSummary {
	out := *ls
	out.All = cloneSamples(ls.All)
	out.HotOnly = cloneSamples(ls.HotOnly)
	return &out
}

func cloneSamples(m map[string]*metrics.Sample) map[string]*metrics.Sample {
	out := make(map[string]*metrics.Sample, len(m))
	for k, s := range m {
		out[k] = s.Clone()
	}
	return out
}

// runLeg is the leg executor: the §7.2 protocol over the pressure
// population of measuredNames (padded to p.PressureApps) on a system built
// from cfg. The returned summary is the caller's own copy, and its
// telemetry has been published, however the leg was answered.
func runLeg(p Params, measuredNames []string, cfg android.SystemConfig) *legSummary {
	pop, measured := pressurePopulation(p, measuredNames)
	popNames := make([]string, len(pop))
	for i, pr := range pop {
		popNames[i] = pr.Name
	}
	key := legKey(p, popNames, measuredNames, cfg)
	ls, how := legCache.do(key, func() (*legSummary, legResult) {
		st := CheckpointStore()
		if st != nil {
			cached := &legSummary{}
			if st.Get(key, cached) {
				return cached, legRestored
			}
		}
		ls := runHotLaunchesWithSystem(p, android.NewSystem(cfg), pop, measured)
		if st != nil {
			// A failed append latches the store (Store.Failed reports
			// it); the leg's result stands and a resume reruns it.
			_ = st.Put(key, ls)
		}
		return ls, legRun
	})
	p.legs.add(how)
	if reg := telemetry.SimRegistry(); reg != nil {
		reg.Counter("fleetsim_legs_total",
			"Hot-launch protocol legs by how the leg executor answered them.", "result", string(how)).Inc()
	}
	ls.Telemetry.Publish()
	return ls
}

// legKey is a leg's content address: a digest of everything the protocol
// reads — its Params (rounds, use time, the order seed, the profile
// scale), the population and measured sets, and the whole effective
// SystemConfig (seed, scale, device and backend, Fleet, Swam and fault
// parameters) as JSON. TestLegKeyCoversConfig pins that every exported
// config leaf reaches the key.
func legKey(p Params, population, measuredNames []string, cfg android.SystemConfig) string {
	measured := append([]string(nil), measuredNames...)
	sort.Strings(measured)
	doc, err := json.Marshal(struct {
		Rounds     int
		UseTime    time.Duration
		Seed       uint64
		Scale      int64
		Population []string
		Measured   []string
		Config     android.SystemConfig
	}{p.Rounds, p.UseTime, p.Seed, p.Scale, population, measured, cfg})
	if err != nil {
		panic(fmt.Sprintf("experiments: leg key: %v", err))
	}
	sum := sha256.Sum256(doc)
	return "leg/v1/" + hex.EncodeToString(sum[:16])
}

// legResult says how the executor answered a leg; it is also the
// fleetsim_legs_total label.
type legResult string

const (
	legRun      legResult = "run"      // simulated now
	legReused   legResult = "reused"   // answered by the in-process memo
	legRestored legResult = "restored" // answered by the checkpoint store
)

// LegCounts tallies how the leg executor answered one experiment's legs.
// Attach it to Params with WithLegCounts; fleetsim prints it on each
// experiment's timing line.
type LegCounts struct {
	Run, Reused, Restored atomic.Int64
}

// WithLegCounts returns p with c attached: every leg executed under the
// returned Params (or copies of it) is tallied in c. Counting never
// changes what an experiment computes.
func (p Params) WithLegCounts(c *LegCounts) Params {
	p.legs = c
	return p
}

func (c *LegCounts) add(how legResult) {
	if c == nil {
		return
	}
	switch how {
	case legReused:
		c.Reused.Add(1)
	case legRestored:
		c.Restored.Add(1)
	default:
		c.Run.Add(1)
	}
}

// legMemoCap bounds the in-process memo. A full `fleetsim all` asks for
// fewer distinct legs than this at any Params.
const legMemoCap = 64

// legCache is the process-wide memo behind runLeg.
var legCache = newLegMemo(legMemoCap)

// legMemo is a bounded singleflight memo of finished legs, least recently
// used evicted first. It holds pristine summaries and hands out clones.
type legMemo struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*legEntry
	lru     *list.List // keys of finished entries, most recent first
}

// legEntry is one key's slot: in flight until done closes, then either
// finished (sum set) or removed (the computation panicked).
type legEntry struct {
	done chan struct{}
	sum  *legSummary
	elem *list.Element
}

func newLegMemo(capacity int) *legMemo {
	return &legMemo{cap: capacity, entries: map[string]*legEntry{}, lru: list.New()}
}

// do returns a clone of key's summary, computing it at most once across
// concurrent callers. A computation that panics caches nothing: its
// waiters retry (and recompute or re-panic) instead of hanging.
func (m *legMemo) do(key string, compute func() (*legSummary, legResult)) (*legSummary, legResult) {
	for {
		m.mu.Lock()
		e := m.entries[key]
		switch {
		case e == nil:
			e = &legEntry{done: make(chan struct{})}
			m.entries[key] = e
			m.mu.Unlock()
			return m.fill(key, e, compute)
		case e.sum != nil:
			m.lru.MoveToFront(e.elem)
			ls := e.sum.clone()
			m.mu.Unlock()
			return ls, legReused
		}
		m.mu.Unlock()
		<-e.done
	}
}

// fill runs compute for the in-flight entry e and publishes its result.
func (m *legMemo) fill(key string, e *legEntry, compute func() (*legSummary, legResult)) (*legSummary, legResult) {
	defer close(e.done)
	defer func() {
		if e.sum == nil { // compute panicked: release the key
			m.mu.Lock()
			if m.entries[key] == e {
				delete(m.entries, key)
			}
			m.mu.Unlock()
		}
	}()
	ls, how := compute()
	m.mu.Lock()
	defer m.mu.Unlock()
	e.sum = ls
	e.elem = m.lru.PushFront(key)
	for m.lru.Len() > m.cap {
		delete(m.entries, m.lru.Remove(m.lru.Back()).(string))
	}
	return ls.clone(), how
}
