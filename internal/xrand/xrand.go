// Package xrand implements the deterministic pseudo-random source used by
// every workload generator in the simulator. It is a small, explicit
// xoshiro256** implementation so that results are bit-identical across Go
// releases and platforms (math/rand's default source has changed between
// releases, which would silently change experiment outputs).
package xrand

import (
	"math"
	"sync"
	"sync/atomic"
)

// Rand is a deterministic random source. It is NOT safe for concurrent use;
// each simulated component owns its own Rand derived from a master seed.
type Rand struct {
	s [4]uint64
	// zmemo caches the Zipf sampler's per-(n,s) rejection bounds, which
	// cost four exp/log calls to recompute and dominate the workload
	// generators' access sampling. Two slots cover the common pattern of
	// alternating draws over two ranges (hot views and the recency ring).
	// Purely a cache of pure-function values: hit or miss, the draw
	// stream is bit-identical.
	zmemo [2]zipfMemo
	znext uint8
	// ztab caches the shared acceptance tables (see zipfTable) of the
	// last two skews drawn, so a draw never touches the registry. Slots
	// fill round-robin on miss.
	ztab   [2]*zipfTable
	ztnext uint8
}

// zipfMemo is one cached set of rejection-inversion bounds; n == 0 marks
// an empty slot (Zipf never caches n <= 1).
type zipfMemo struct {
	n       int
	s       float64
	hx0, hn float64
}

// splitmix64 expands a 64-bit seed into a well-distributed stream; it is the
// recommended seeding procedure for the xoshiro family.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Rand seeded from seed. Two Rands with the same seed produce
// identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A state of all zeros would be absorbing; splitmix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent child stream labelled by id. Children with
// different ids are statistically independent of each other and the parent.
func (r *Rand) Fork(id uint64) *Rand {
	return New(r.Uint64() ^ (id+1)*0x9e3779b97f4a7c15)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Box–Muller, polar form).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)); used for object-size distributions.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Exp returns an exponential variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Zipf draws from a Zipf-like distribution over [0, n) with skew s > 1 using
// rejection-inversion. Small ranks are exponentially more likely; workload
// generators use this for "hot object" access patterns.
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Simple inversion on the truncated zeta CDF computed incrementally
	// would be O(n); instead use the standard rejection sampler.
	t := r.zipfTable(s)
	hx0, hn := r.zipfBounds(n, s, t.oneMinusQ, t.oneMinusQInv)
	for {
		u := hn + r.Float64()*(hx0-hn)
		x := helperHInv(u, t.oneMinusQ, t.oneMinusQInv)
		k := math.Floor(x + 0.5)
		if k < 0 {
			k = 0
		} else if k > float64(n-1) {
			k = float64(n - 1)
		}
		if u >= t.accept(int(k)) {
			return int(k)
		}
	}
}

// zipfBounds returns (hx0, hn) for the rejection sampler, answering from
// the per-Rand memo when the (n, s) pair repeats — the workload
// generators draw millions of times over slowly-changing ranges, and
// these bounds are the only per-draw cost that doesn't depend on the
// drawn value. Slots fill round-robin on miss.
func (r *Rand) zipfBounds(n int, s, oneMinusQ, oneMinusQInv float64) (hx0, hn float64) {
	for i := range r.zmemo {
		if m := &r.zmemo[i]; m.n == n && m.s == s {
			return m.hx0, m.hn
		}
	}
	hx0 = helperH(0.5, oneMinusQ, oneMinusQInv) - 1
	hn = helperH(float64(n)+0.5, oneMinusQ, oneMinusQInv)
	r.zmemo[r.znext] = zipfMemo{n: n, s: s, hx0: hx0, hn: hn}
	r.znext ^= 1
	return hx0, hn
}

func helperH(x, oneMinusQ, oneMinusQInv float64) float64 {
	return math.Exp(oneMinusQ*math.Log(1+x)) * oneMinusQInv
}

func helperHInv(x, oneMinusQ, oneMinusQInv float64) float64 {
	return math.Exp(oneMinusQInv*math.Log(oneMinusQ*x)) - 1
}

// zipfAccept is the rejection bound at integer rank k: a draw u that
// lands on k is accepted iff u >= zipfAccept(k, ...). It depends only on
// the skew q and k, never on n, which is what lets zipfTable share it.
func zipfAccept(k, q, oneMinusQ, oneMinusQInv float64) float64 {
	return helperH(k+0.5, oneMinusQ, oneMinusQInv) - math.Exp(-q*math.Log(k+1))
}

// zipfTable holds zipfAccept(k) for k = 0, 1, ... at one skew. It is a
// pure cache of a pure function: every entry is computed by zipfAccept
// itself, so a table hit returns the same bits as computing the bound,
// and the draw stream does not depend on which Rands shared the table or
// in what order it grew. Readers load the entries lock-free; growth is
// copy-on-write under mu, so a published slice is never written again.
type zipfTable struct {
	// s is the skew; oneMinusQ and oneMinusQInv are 1-s and 1/(1-s),
	// which Zipf takes from here instead of dividing on every draw.
	s, oneMinusQ, oneMinusQInv float64
	// shared is false for skews past the registry cap: such a table
	// stores nothing and every bound is computed directly.
	shared bool
	acc    atomic.Pointer[[]float64]
	mu     sync.Mutex
}

// minZipfTable is the smallest table a skew gets; tables double from it.
const minZipfTable = 64

// maxZipfTables caps the skew registry. Skews are caller-chosen (the
// population campaign's skew is a per-job parameter), so a long-lived
// process must not grow a table for every value it has ever seen.
const maxZipfTables = 32

// zipfTables is the process-wide registry of shared tables, one per skew.
var zipfTables struct {
	sync.Mutex
	m map[float64]*zipfTable
}

// zipfTable returns the table for skew s, from the per-Rand slots when
// s was drawn recently and from the registry otherwise.
func (r *Rand) zipfTable(s float64) *zipfTable {
	for _, t := range r.ztab {
		if t != nil && t.s == s {
			return t
		}
	}
	t := sharedZipfTable(s)
	r.ztab[r.ztnext] = t
	r.ztnext ^= 1
	return t
}

// sharedZipfTable returns the registered table for s, registering a new
// one while the registry is below its cap. Past the cap it returns an
// unshared table that computes every bound directly.
func sharedZipfTable(s float64) *zipfTable {
	zipfTables.Lock()
	defer zipfTables.Unlock()
	if t := zipfTables.m[s]; t != nil {
		return t
	}
	t := &zipfTable{s: s, oneMinusQ: 1 - s}
	t.oneMinusQInv = 1 / t.oneMinusQ
	if len(zipfTables.m) < maxZipfTables {
		if zipfTables.m == nil {
			zipfTables.m = make(map[float64]*zipfTable, maxZipfTables)
		}
		t.shared = true
		zipfTables.m[s] = t
	}
	return t
}

// accept returns zipfAccept(k) for the table's skew.
func (t *zipfTable) accept(k int) float64 {
	if acc := t.acc.Load(); acc != nil && k < len(*acc) {
		return (*acc)[k]
	}
	if !t.shared {
		return zipfAccept(float64(k), t.s, t.oneMinusQ, t.oneMinusQInv)
	}
	return t.grow(k)
}

// grow publishes a copy of the table that covers rank k, doubling its
// length (at least minZipfTable) until it does, and returns entry k.
func (t *zipfTable) grow(k int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var acc []float64
	if p := t.acc.Load(); p != nil {
		acc = *p
	}
	if k >= len(acc) {
		size := max(minZipfTable, 2*len(acc))
		for size <= k {
			size *= 2
		}
		next := make([]float64, size)
		copy(next, acc)
		for i := len(acc); i < size; i++ {
			next[i] = zipfAccept(float64(i), t.s, t.oneMinusQ, t.oneMinusQInv)
		}
		t.acc.Store(&next)
		acc = next
	}
	return acc[k]
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements via the provided swap func.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
