package fleetsim_test

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// and reports the paper's headline quantities as custom benchmark metrics
// (so `go test -bench=.` regenerates the evaluation). ns/op is the wall
// time of one full experiment; the interesting outputs are the custom
// metrics, e.g. fleet-vs-android median speedup for Fig. 13.
//
// Metrics are accumulated across the b.N iterations and reported once as
// per-iteration means after the loop — ReportMetric overwrites on every
// call, so reporting inside the loop would both record only the last
// iteration and charge the bookkeeping to the measured region.
//
// Experiments built from §7.2 protocol legs (Figs. 3, 13, 15, 16, §7.4
// and the extensions) share them through the process-wide leg executor:
// after the first iteration, or once an earlier benchmark in the same run
// computed the same legs, ns/op measures what the experiment derives from
// memoized legs rather than the simulation itself.
//
// The shapes to compare against the paper are recorded in EXPERIMENTS.md.

import (
	"testing"

	"fleetsim/fleet"
)

// benchParams are reduced-round parameters so the full harness finishes in
// minutes; run cmd/fleetsim for the full versions.
func benchParams() fleet.Params {
	p := fleet.DefaultParams()
	p.Rounds = 4
	return p
}

// metricAcc accumulates named metric samples across benchmark iterations
// and reports each one's mean exactly once.
type metricAcc struct {
	names []string
	sums  map[string]float64
}

func (a *metricAcc) add(name string, v float64) {
	if a.sums == nil {
		a.sums = map[string]float64{}
	}
	if _, ok := a.sums[name]; !ok {
		a.names = append(a.names, name)
	}
	a.sums[name] += v
}

func (a *metricAcc) report(b *testing.B) {
	b.Helper()
	for _, name := range a.names {
		b.ReportMetric(a.sums[name]/float64(b.N), name)
	}
}

func BenchmarkFig02HotVsCold(b *testing.B) {
	p := benchParams()
	p.Rounds = 3
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		rows := fleet.Fig2(p)
		var hot, cold float64
		for _, r := range rows {
			hot += r.HotMs
			cold += r.ColdMs
		}
		n := float64(len(rows))
		acc.add("hot-ms", hot/n)
		acc.add("cold-ms", cold/n)
		acc.add("cold/hot-x", cold/hot)
	}
	acc.report(b)
}

func BenchmarkFig03TailBaselines(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		rows := fleet.Fig3(p)
		var noswap, swap, marvin float64
		for _, r := range rows {
			noswap += r.NoSwapMs
			swap += r.SwapMs
			marvin += r.MarvinMs
		}
		n := float64(len(rows))
		acc.add("noswap-p90-ms", noswap/n)
		acc.add("swap-p90-ms", swap/n)
		acc.add("marvin-p90-ms", marvin/n)
	}
	acc.report(b)
}

func BenchmarkFig04AccessTimeline(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		res := fleet.Fig4(p)
		gcPts := 0
		for _, pt := range res.Points {
			if pt.GC {
				gcPts++
			}
		}
		acc.add("samples", float64(len(res.Points)))
		acc.add("gc-spike-samples", float64(gcPts))
	}
	acc.report(b)
}

func BenchmarkFig05Lifetime(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		res := fleet.Fig5(p)
		acc.add("fgo-alive-%", 100*res.AliveFGO)
		acc.add("bgo-alive-%", 100*res.AliveBGO)
	}
	acc.report(b)
}

func BenchmarkFig06ReAccess(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		rows := fleet.Fig6a(p)
		var nro, union float64
		for _, r := range rows {
			nro += r.NROFrac
			union += r.BothFrac
		}
		n := float64(len(rows))
		acc.add("nro-coverage-%", 100*nro/n)
		acc.add("union-coverage-%", 100*union/n)
	}
	acc.report(b)
}

func BenchmarkFig07SizeCDF(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		rows := fleet.Fig7(p)
		var subPage float64
		for _, r := range rows {
			subPage += r.CDF[8] // ≤ 4096 B
		}
		acc.add("below-page-%", 100*subPage/float64(len(rows)))
	}
	acc.report(b)
}

func BenchmarkFig11aCachingLarge(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		s := fleet.Fig11a(p)
		acc.add("android-max-apps", float64(s[0].Max))
		acc.add("marvin-max-apps", float64(s[1].Max))
		acc.add("fleet-max-apps", float64(s[2].Max))
	}
	acc.report(b)
}

func BenchmarkFig11bCachingSmall(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		s := fleet.Fig11b(p)
		acc.add("marvin-max-apps", float64(s[1].Max))
		acc.add("fleet-max-apps", float64(s[2].Max))
		acc.add("fleet/marvin-x", float64(s[2].Max)/float64(s[1].Max))
	}
	acc.report(b)
}

func BenchmarkFig11cCachingCommercial(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		s := fleet.Fig11c(p)
		acc.add("noswap-max-apps", float64(s[0].Max))
		acc.add("swap-max-apps", float64(s[1].Max))
		acc.add("fleet-max-apps", float64(s[2].Max))
	}
	acc.report(b)
}

func BenchmarkFig12aGCWorkingSet(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		rows := fleet.Fig12a(p)
		acc.add("android-objs", rows[0].MeanObjects)
		acc.add("fleet-bgc-objs", rows[2].MeanObjects)
		if rows[2].MeanObjects > 0 {
			acc.add("reduction-x", rows[0].MeanObjects/rows[2].MeanObjects)
		}
	}
	acc.report(b)
}

func BenchmarkFig12bTwitchTimeline(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		res := fleet.Fig12b(p)
		var androidBg, fleetBg int64
		for _, pt := range res.Android {
			if pt.TimeSec >= res.BackSec && pt.TimeSec < res.FrontSec {
				androidBg += pt.GC
			}
		}
		for _, pt := range res.Fleet {
			if pt.TimeSec >= res.BackSec && pt.TimeSec < res.FrontSec {
				fleetBg += pt.GC
			}
		}
		acc.add("android-bg-gc-objs", float64(androidBg))
		acc.add("fleet-bg-gc-objs", float64(fleetBg))
	}
	acc.report(b)
}

func BenchmarkFig13HotLaunch(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		res := fleet.Fig13(p)
		sa, sm := res.MedianSpeedups()
		ta, tm := res.PercentileSpeedups(90)
		acc.add("med-vs-android-x", sa)
		acc.add("med-vs-marvin-x", sm)
		acc.add("p90-vs-android-x", ta)
		acc.add("p90-vs-marvin-x", tm)
	}
	acc.report(b)
}

func BenchmarkFig14Frames(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		rows := fleet.Fig14(p)
		var aj, fj, mj float64
		for _, r := range rows {
			aj += r.AndroidJank
			mj += r.MarvinJank
			fj += r.FleetJank
		}
		n := float64(len(rows))
		acc.add("android-jank-%", 100*aj/n)
		acc.add("marvin-jank-%", 100*mj/n)
		acc.add("fleet-jank-%", 100*fj/n)
	}
	acc.report(b)
}

func BenchmarkFig15Speedups(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		rows := fleet.Fig15(fleet.Fig13(p))
		for _, r := range rows {
			if r.Statistic == "90th percentile" {
				acc.add("p90-vs-android-x", r.VsAndroid)
				acc.add("p90-vs-marvin-x", r.VsMarvin)
			}
		}
	}
	acc.report(b)
}

func BenchmarkFig16MoreCDFs(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		res := fleet.Fig16(p)
		sa, _ := res.MedianSpeedups()
		acc.add("med-vs-android-x", sa)
	}
	acc.report(b)
}

func BenchmarkSec73CPU(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		r := fleet.Sec73(p)
		acc.add("gc-cpu-delta-pp", 100*(r.FleetGCShare-r.AndroidGCShare))
		acc.add("fleet-mw", r.FleetPower)
		acc.add("android-mw", r.AndroidPower)
	}
	acc.report(b)
}

func BenchmarkSec74HeapSensitivity(b *testing.B) {
	p := benchParams()
	var acc metricAcc
	for i := 0; i < b.N; i++ {
		rows := fleet.Sec74(p)
		for _, r := range rows {
			if r.Policy == "Fleet" && r.Growth == 1.1 {
				acc.add("fleet-1.1x-max-apps", float64(r.MaxCached))
			}
			if r.Policy == "Android" && r.Growth == 1.1 {
				acc.add("android-1.1x-max-apps", float64(r.MaxCached))
			}
		}
	}
	acc.report(b)
}
