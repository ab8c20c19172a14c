package xrand

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// zipfRef is the Zipf sampler before the acceptance bounds were
// tabulated, kept verbatim except that it computes the (n, s) bounds
// directly instead of through the Rand's memo. Every bound it uses is
// recomputed per draw, so it is the oracle for the tables.
func zipfRef(r *Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	v := 1.0
	q := s
	oneMinusQ := 1 - q
	oneMinusQInv := 1 / oneMinusQ
	hx0 := helperH(0.5, oneMinusQ, oneMinusQInv) - 1
	hn := helperH(float64(n)+0.5, oneMinusQ, oneMinusQInv)
	for {
		u := hn + r.Float64()*(hx0-hn)
		x := helperHInv(u, oneMinusQ, oneMinusQInv)
		k := math.Floor(x + 0.5)
		if k < 0 {
			k = 0
		} else if k > float64(n-1) {
			k = float64(n - 1)
		}
		if u >= helperH(k+0.5, oneMinusQ, oneMinusQInv)-math.Exp(-q*math.Log(k+v)) {
			return int(k)
		}
	}
}

// resetZipfTables empties the shared table registry for the duration of
// a test, so the test sees tables grow from nothing and the registry cap
// from zero, and leaves an empty registry behind.
func resetZipfTables(t *testing.T) {
	reset := func() {
		zipfTables.Lock()
		zipfTables.m = nil
		zipfTables.Unlock()
	}
	reset()
	t.Cleanup(reset)
}

func registeredZipfTables() int {
	zipfTables.Lock()
	defer zipfTables.Unlock()
	return len(zipfTables.m)
}

// TestZipfMatchesReference draws the tabulated sampler and zipfRef side
// by side from the same seed over random ranges and interleaved skews.
// Equal return values and an equal next Uint64 prove the tables change
// neither the values drawn nor how much of the stream each draw consumes.
func TestZipfMatchesReference(t *testing.T) {
	skews := []float64{1.05, 1.1, 1.2, 1.3, 1.5, 2.0}
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, seed := range []uint64{1, 7, 42, 97} {
		got, want := New(seed), New(seed)
		// A separate stream picks each draw's (n, s), so the two samplers
		// consume nothing but their own draws.
		pick := New(seed ^ 0x5eed)
		for i := 0; i < draws; i++ {
			n := 2 + pick.Intn(5999)
			if pick.Bool(0.3) {
				n = 2 + pick.Intn(20)
			}
			s := skews[pick.Intn(len(skews))]
			if g, w := got.Zipf(n, s), zipfRef(want, n, s); g != w {
				t.Fatalf("seed %d draw %d: Zipf(%d, %g) = %d, reference %d", seed, i, n, s, g, w)
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: streams diverged after %d draws: next Uint64 %#x, reference %#x", seed, draws, g, w)
		}
	}
}

// TestZipfTableEntriesExact compares every table entry bit for bit with
// the bound zipfRef evaluates inline. A last-bit difference would change
// a draw only when u lands in that bit, which the stream tests could
// miss; this catches it directly.
func TestZipfTableEntriesExact(t *testing.T) {
	resetZipfTables(t)
	for _, q := range []float64{1.05, 1.1, 1.2, 1.3, 1.5, 2.0} {
		tab := sharedZipfTable(q)
		tab.grow(6000)
		v := 1.0
		oneMinusQ := 1 - q
		oneMinusQInv := 1 / oneMinusQ
		for i, got := range *tab.acc.Load() {
			k := float64(i)
			want := helperH(k+0.5, oneMinusQ, oneMinusQInv) - math.Exp(-q*math.Log(k+v))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("skew %g rank %d: table %v, inline bound %v", q, i, got, want)
			}
		}
	}
}

// TestZipfTablesConcurrent has 8 goroutines, each with its own Rand,
// draw one skew over a growing range, so the shared table grows while
// others read it. Every goroutine's draws must equal a serial rerun of
// its seed against a fresh registry. Run it under -race.
func TestZipfTablesConcurrent(t *testing.T) {
	const (
		workers = 8
		draws   = 20_000
		skew    = 1.25
	)
	run := func(seed uint64) []int {
		r := New(seed)
		out := make([]int, draws)
		for i := range out {
			out[i] = r.Zipf(2+i/2, skew)
		}
		return out
	}
	resetZipfTables(t)
	parallel := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[w] = run(uint64(w + 1))
		}()
	}
	wg.Wait()
	resetZipfTables(t)
	for w, got := range parallel {
		want := run(uint64(w + 1))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("worker %d draw %d: concurrent %d, serial %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestZipfRegistryCap draws 100 distinct skews: the registry stops at
// its cap and the skews past it, computed directly, draw the same values.
func TestZipfRegistryCap(t *testing.T) {
	resetZipfTables(t)
	got, want := New(3), New(3)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			s := 1.01 + float64(i)*0.01
			for j := 0; j < 50; j++ {
				n := 2 + (i*50+j)%3000
				if g, w := got.Zipf(n, s), zipfRef(want, n, s); g != w {
					t.Fatalf("skew %g n %d: Zipf %d, reference %d", s, n, g, w)
				}
			}
		}
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("streams diverged: next Uint64 %#x, reference %#x", g, w)
	}
	if got := registeredZipfTables(); got != maxZipfTables {
		t.Errorf("registry holds %d skews after 100 distinct ones, want the cap %d", got, maxZipfTables)
	}
}

// BenchmarkZipf measures one draw at the (n, s) pairs the workload
// generators use: view and recency-ring sizes at the apps' skews.
func BenchmarkZipf(b *testing.B) {
	for _, n := range []int{40, 2000, 4096} {
		for _, s := range []float64{1.1, 1.2, 1.3} {
			b.Run(fmt.Sprintf("n=%d/s=%g", n, s), func(b *testing.B) {
				r := New(1)
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += r.Zipf(n, s)
				}
				if sum < 0 {
					b.Fatal(sum)
				}
			})
		}
	}
}
