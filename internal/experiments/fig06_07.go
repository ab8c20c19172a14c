package experiments

import (
	"fmt"
	"time"

	"fleetsim/internal/apps"
	"fleetsim/internal/core"
	"fleetsim/internal/heap"
	"fleetsim/internal/metrics"
	"fleetsim/internal/runner"
	"fleetsim/internal/units"
	"fleetsim/internal/xrand"
)

// Fig6aRow is one app of Fig. 6a: how much of the hot-launch re-access set
// NRO/FYO cover, and their memory footprint.
type Fig6aRow struct {
	App string
	// Re-access coverage fractions at D = 2.
	NROFrac  float64
	FYOFrac  float64
	BothFrac float64 // NRO ∪ FYO
	// Heap-memory footprint fractions of the launch classes.
	LaunchMemFrac float64
}

// Fig6bPoint is one depth of the Fig. 6b sweep for Twitter.
type Fig6bPoint struct {
	Depth int
	// ReAccessFrac is how much of the launch re-access set NRO(D) covers.
	ReAccessFrac float64
	// MemFrac is NRO(D)'s share of heap bytes.
	MemFrac float64
}

// fig6Rig runs one app to its first background grouping and returns the
// Fleet instance plus the app.
func fig6Rig(p Params, profile apps.Profile, depth int) (*soloRig, *core.Fleet, int32) {
	rig := newSoloRig(p, profile)
	cfg := core.DefaultConfig()
	cfg.NRODepth = depth
	fl := core.New(cfg, rig.App.H, rig.VM)
	rig.App.BuildInitial(0)
	rig.runFg(30 * time.Second)
	rig.App.EnterBackground(rig.now)
	fl.OnBackground()
	rig.runBg(10 * time.Second) // Ts
	// Objects allocated since the last GC — i.e. carrying the current GC
	// generation — are the FYO at this grouping (§5.3.1).
	fyoGen := rig.App.H.GCCount()
	fl.RunGrouping(rig.now)
	rig.App.H.WriteBarrier = func(id heap.ObjectID) { rig.RS.Barrier(id); fl.WriteBarrier(id) }
	rig.runBg(30 * time.Second)
	return rig, fl, fyoGen
}

// launchCoverage classifies a launch re-access set against the last
// grouping: returns the fraction covered by NRO, FYO and their union, plus
// the number of objects in the set.
func launchCoverage(rig *soloRig, fl *core.Fleet, fyoGen int32) (nro, fyo, both float64, n int) {
	set := rig.App.LaunchSet()
	if len(set) == 0 {
		return 0, 0, 0, 0
	}
	h := rig.App.H
	var cN, cF, cU int
	for _, id := range set {
		isNRO := fl.ClassOf(id) == core.ClassNRO
		// FYO membership is independent of the classifier's precedence:
		// an object allocated just before the switch can be both NRO and
		// FYO (the paper's sets overlap).
		isFYO := h.AllocGC(id) == fyoGen
		if isNRO {
			cN++
		}
		if isFYO {
			cF++
		}
		if isNRO || isFYO {
			cU++
		}
	}
	total := float64(len(set))
	return float64(cN) / total, float64(cF) / total, float64(cU) / total, len(set)
}

// Fig6a measures NRO/FYO re-access coverage during hot launches for five
// apps at D = 2 (§4.2: NRO ≈ 50%, FYO ≈ 40%, union ≈ 68%).
func Fig6a(p Params) []Fig6aRow {
	names := []string{"Twitter", "Facebook", "Youtube", "AmazonShop", "Spotify"}
	return runner.Map(names, func(_ int, name string) Fig6aRow {
		profile := *apps.ProfileByName(name, p.Scale)
		rig, fl, fyoGen := fig6Rig(p, profile, 2)
		nro, fyo, both, _ := launchCoverage(rig, fl, fyoGen)
		gs := fl.LastGrouping()
		heapBytes := float64(rig.App.H.LiveBytes())
		return Fig6aRow{
			App:           name,
			NROFrac:       nro,
			FYOFrac:       fyo,
			BothFrac:      both,
			LaunchMemFrac: float64(gs.LaunchBytes) / heapBytes,
		}
	})
}

// Fig6b sweeps the depth parameter for Twitter (§4.2's key insight: the
// re-access ratio rises faster than the memory footprint at small D).
func Fig6b(p Params) []Fig6bPoint {
	return runner.MapN(8, func(i int) Fig6bPoint {
		d := 2 * i
		profile := *apps.ProfileByName("Twitter", p.Scale)
		rig, fl, fyoGen := fig6Rig(p, profile, d)
		nro, _, _, _ := launchCoverage(rig, fl, fyoGen)
		gs := fl.LastGrouping()
		return Fig6bPoint{
			Depth:        d,
			ReAccessFrac: nro,
			MemFrac:      float64(gs.NROBytes) / float64(rig.App.H.LiveBytes()),
		}
	})
}

// Fig7Row is one app's object-size CDF sampled at the paper's x-axis
// points.
type Fig7Row struct {
	App string
	// CDF[i] is the fraction of objects at most Fig7Sizes[i] bytes.
	CDF []float64
}

// Fig7Sizes are the size buckets of Fig. 7's x-axis.
var Fig7Sizes = []int32{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// Fig7 samples each commercial app's object-size distribution — the "most
// objects are far smaller than a page" observation motivating object
// grouping (§4.3).
func Fig7(p Params) []Fig7Row {
	names := []string{"Twitter", "Facebook", "Youtube", "Tiktok", "AmazonShop", "GoogleMaps", "Firefox", "CandyCrush"}
	const samples = 200000
	// Each app already samples from its own seed-derived stream, so the
	// rows parallelize without any cross-task randomness.
	return runner.Map(names, func(i int, name string) Fig7Row {
		profile := apps.ProfileByName(name, p.Scale)
		r := xrand.New(p.Seed + uint64(i))
		var s metrics.Sample
		for j := 0; j < samples; j++ {
			s.Add(float64(profile.Sizes.Sample(r)))
		}
		row := Fig7Row{App: name}
		for _, b := range Fig7Sizes {
			row.CDF = append(row.CDF, s.CDFAt(float64(b)))
		}
		return row
	})
}

// FormatFig6 renders the Fig. 6 summary.
func FormatFig6(a []Fig6aRow, b []Fig6bPoint) string {
	out := "Fig 6a — hot-launch re-access coverage at D=2\n"
	var nro, fyo, both, mem float64
	for _, r := range a {
		out += fmt.Sprintf("  %-12s NRO %4.0f%%  FYO %4.0f%%  union %4.0f%%  launch-mem %4.1f%%\n",
			r.App, 100*r.NROFrac, 100*r.FYOFrac, 100*r.BothFrac, 100*r.LaunchMemFrac)
		nro += r.NROFrac
		fyo += r.FYOFrac
		both += r.BothFrac
		mem += r.LaunchMemFrac
	}
	n := float64(len(a))
	if n > 0 {
		out += fmt.Sprintf("  %-12s NRO %4.0f%%  FYO %4.0f%%  union %4.0f%%  launch-mem %4.1f%%\n",
			"AVG", 100*nro/n, 100*fyo/n, 100*both/n, 100*mem/n)
	}
	out += "Fig 6b — depth sweep (Twitter)\n"
	for _, pt := range b {
		out += fmt.Sprintf("  D=%-2d re-access %4.0f%%  memory %4.1f%%\n", pt.Depth, 100*pt.ReAccessFrac, 100*pt.MemFrac)
	}
	return out
}

// FormatFig7 renders the size CDFs.
func FormatFig7(rows []Fig7Row) string {
	out := "Fig 7 — object size CDF (fraction ≤ size)\n  size:"
	for _, b := range Fig7Sizes {
		out += fmt.Sprintf(" %6s", units.Bytes(int64(b)))
	}
	out += "\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-12s", r.App)
		for _, v := range r.CDF {
			out += fmt.Sprintf(" %5.1f%%", 100*v)
		}
		out += "\n"
	}
	return out
}
