package experiments

import (
	"fmt"
	"sort"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/core"
	"fleetsim/internal/heap"
	"fleetsim/internal/metrics"
	"fleetsim/internal/runner"
	"fleetsim/internal/units"
)

// Fig13AppResult is the per-app launch-time distribution under the three
// policies (Fig. 13a–l CDFs plus the derived statistics of Figs. 13m and
// 15).
type Fig13AppResult struct {
	App          string
	JavaHeapFrac float64
	Android      *metrics.Sample
	Marvin       *metrics.Sample
	Fleet        *metrics.Sample
	// Hot-only variants exclude cold relaunches after lmkd kills; the
	// Java-share correlation (Fig. 13n) uses these so it reflects swap
	// behaviour, not kill luck.
	AndroidHot *metrics.Sample
	FleetHot   *metrics.Sample
}

// Fig13Result bundles the full §7.2 hot-launch study.
type Fig13Result struct {
	Apps []Fig13AppResult
	// Kill counts per policy, context for the tails.
	AndroidKills, MarvinKills, FleetKills int
}

// MedianSpeedups returns (vs Android, vs Marvin) average median speedups —
// Fig. 13m's headline (paper: 1.59× and 2.62×).
func (r Fig13Result) MedianSpeedups() (vsAndroid, vsMarvin float64) {
	var a, m []float64
	for _, app := range r.Apps {
		f := app.Fleet.Median()
		if f <= 0 {
			continue
		}
		a = append(a, app.Android.Median()/f)
		m = append(m, app.Marvin.Median()/f)
	}
	return mean(a), mean(m)
}

// PercentileSpeedups returns Fig. 15's statistics at percentile pct.
func (r Fig13Result) PercentileSpeedups(pct float64) (vsAndroid, vsMarvin float64) {
	var a, m []float64
	for _, app := range r.Apps {
		f := app.Fleet.Percentile(pct)
		if f <= 0 {
			continue
		}
		a = append(a, app.Android.Percentile(pct)/f)
		m = append(m, app.Marvin.Percentile(pct)/f)
	}
	return mean(a), mean(m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig13nPoint is one app of Fig. 13n: Fleet's speedup against the app's
// Java-heap share.
type Fig13nPoint struct {
	App          string
	JavaHeapFrac float64
	Speedup      float64
}

// Fig13n derives the speedup-vs-Java-share correlation from hot-only
// medians (Fleet optimises the Java heap, so the correlation is about
// fault volume at launch, not about which apps got killed).
func (r Fig13Result) Fig13n() []Fig13nPoint {
	var pts []Fig13nPoint
	for _, app := range r.Apps {
		f := app.FleetHot.Median()
		a := app.AndroidHot.Median()
		if f <= 0 || a <= 0 {
			continue
		}
		pts = append(pts, Fig13nPoint{
			App:          app.App,
			JavaHeapFrac: app.JavaHeapFrac,
			Speedup:      a / f,
		})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].JavaHeapFrac < pts[j].JavaHeapFrac })
	return pts
}

// runFig13Protocol executes the §7.2 protocol for the given measured apps
// and returns per-app distributions for all three policies.
func runFig13Protocol(p Params, measuredNames []string) Fig13Result {
	// The three policy legs are the dominant cost of the §7.2 study and
	// share nothing but read-only inputs, so they run as pool tasks through
	// the leg executor, which answers a leg another experiment already ran
	// (Fig. 15 reads exactly these three) without simulating it again.
	policies := []android.PolicyKind{android.PolicyAndroid, android.PolicyMarvin, android.PolicyFleet}
	legs := runner.Map(policies, func(_ int, pol android.PolicyKind) *legSummary {
		return runLeg(p, measuredNames, systemConfig(p, pol))
	})
	androidRun, marvinRun, fleetRun := legs[0], legs[1], legs[2]

	res := Fig13Result{
		AndroidKills: androidRun.Kills,
		MarvinKills:  marvinRun.Kills,
		FleetKills:   fleetRun.Kills,
	}
	for _, name := range measuredNames {
		profile := apps.ProfileByName(name, p.Scale)
		get := func(r *legSummary) *metrics.Sample {
			if s := r.All[name]; s != nil {
				return s
			}
			return &metrics.Sample{}
		}
		getHot := func(r *legSummary) *metrics.Sample {
			if s := r.HotOnly[name]; s != nil {
				return s
			}
			return &metrics.Sample{}
		}
		res.Apps = append(res.Apps, Fig13AppResult{
			App:          name,
			JavaHeapFrac: profile.JavaHeapFrac,
			Android:      get(androidRun),
			Marvin:       get(marvinRun),
			Fleet:        get(fleetRun),
			AndroidHot:   getHot(androidRun),
			FleetHot:     getHot(fleetRun),
		})
	}
	return res
}

// Fig13 runs the main hot-launch study on the 12 representative apps.
func Fig13(p Params) Fig13Result { return runFig13Protocol(p, Fig13Apps) }

// Fig16 runs the same protocol measuring the remaining 6 apps (appendix A).
func Fig16(p Params) Fig13Result { return runFig13Protocol(p, Fig16Apps) }

// Fig15Row is one statistic row of Fig. 15.
type Fig15Row struct {
	Statistic string
	VsAndroid float64
	VsMarvin  float64
}

// Fig15 derives the appendix's three statistics from a Fig13 result.
func Fig15(r Fig13Result) []Fig15Row {
	p90a, p90m := r.PercentileSpeedups(90)
	p10a, p10m := r.PercentileSpeedups(10)
	meda, medm := r.MedianSpeedups()
	var meansA, meansM []float64
	for _, app := range r.Apps {
		f := app.Fleet.Mean()
		if f <= 0 {
			continue
		}
		meansA = append(meansA, app.Android.Mean()/f)
		meansM = append(meansM, app.Marvin.Mean()/f)
	}
	return []Fig15Row{
		{"90th percentile", p90a, p90m},
		{"10th percentile", p10a, p10m},
		{"median", meda, medm},
		{"mean", mean(meansA), mean(meansM)},
	}
}

// FormatFig13 renders per-app medians/tails plus the headline speedups.
func FormatFig13(r Fig13Result) string {
	out := "Fig 13 — hot-launch time under memory pressure (ms)\n"
	out += fmt.Sprintf("  kills: Android %d, Marvin %d, Fleet %d\n",
		r.AndroidKills, r.MarvinKills, r.FleetKills)
	for _, a := range r.Apps {
		out += fmt.Sprintf("  %-12s med A/M/F %6.0f /%6.0f /%6.0f   p90 %6.0f /%6.0f /%6.0f\n",
			a.App,
			a.Android.Median(), a.Marvin.Median(), a.Fleet.Median(),
			a.Android.Percentile(90), a.Marvin.Percentile(90), a.Fleet.Percentile(90))
	}
	sa, sm := r.MedianSpeedups()
	ta, tm := r.PercentileSpeedups(90)
	out += fmt.Sprintf("  median speedup: %.2fx vs Android, %.2fx vs Marvin (paper: 1.59x, 2.62x)\n", sa, sm)
	out += fmt.Sprintf("  p90 speedup:    %.2fx vs Android, %.2fx vs Marvin (paper: 2.56x, 4.45x)\n", ta, tm)
	return out
}

// FormatFig13n renders the Java-share correlation points.
func FormatFig13n(pts []Fig13nPoint) string {
	out := "Fig 13n — Fleet speedup vs Java-heap share (controlled deep pressure)\n"
	for _, pt := range pts {
		out += fmt.Sprintf("  %-12s java %4.0f%%  speedup %.2fx\n", pt.App, 100*pt.JavaHeapFrac, pt.Speedup)
	}
	return out
}

// FormatFig15 renders the appendix statistics.
func FormatFig15(rows []Fig15Row) string {
	out := "Fig 15 — Fleet speedup over baselines\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-16s %.2fx vs Android   %.2fx vs Marvin\n", r.Statistic, r.VsAndroid, r.VsMarvin)
	}
	return out
}

// Fig13nControlled measures the Fig. 13n correlation under a controlled
// deep-pressure condition: the cached app's evictable memory is fully
// swapped out (as the LRU does to a long-cached app), then it hot-launches
// once under each policy. Because both runs are deterministic replicas of
// the same app, the speedup isolates what Fleet's runtime-guided swap
// protects — the Java-heap launch set — and therefore scales with the
// app's Java share.
func Fig13nControlled(p Params) []Fig13nPoint {
	var pts []Fig13nPoint
	launch := func(name string, useFleet bool) float64 {
		profile := *apps.ProfileByName(name, p.Scale)
		rig := newSoloRig(p, profile)
		var fl *core.Fleet
		if useFleet {
			fl = core.New(core.DefaultConfig(), rig.App.H, rig.VM)
		}
		rig.App.BuildInitial(0)
		rig.runFg(30 * time.Second)
		rig.App.EnterBackground(rig.now)
		rig.runBg(10 * time.Second)
		if fl != nil {
			fl.OnBackground()
			fl.RunGrouping(rig.now)
		}
		rig.runBg(20 * time.Second)
		// Deep pressure: the kernel has swapped everything evictable.
		// HOT_RUNTIME-advised launch pages survive ordinary reclaim;
		// everything else goes, including the whole native segment.
		rig.App.H.Regions(func(r *heap.Region) {
			if fl == nil || r.Kind != heap.KindLaunch {
				rig.VM.AdviseCold(rig.App.H.AS, r.Base, units.RegionSize)
			}
		})
		rig.VM.AdviseCold(rig.App.NativeAS, 0, profile.NativeBytes())
		stall, _ := rig.App.HotLaunchAccess(rig.now)
		return (profile.HotLaunchCPU + stall).Seconds() * 1000
	}
	names := append(append([]string{}, Fig13Apps...), Fig16Apps...)
	// Each app runs two deterministic replicas (Android-like and Fleet);
	// apps are independent, so fan the pairs out on the pool.
	for _, pt := range runner.Map(names, func(_ int, name string) Fig13nPoint {
		profile := apps.ProfileByName(name, p.Scale)
		tA := launch(name, false)
		tF := launch(name, true)
		if tF <= 0 {
			return Fig13nPoint{}
		}
		return Fig13nPoint{App: name, JavaHeapFrac: profile.JavaHeapFrac, Speedup: tA / tF}
	}) {
		if pt.App != "" {
			pts = append(pts, pt)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].JavaHeapFrac < pts[j].JavaHeapFrac })
	return pts
}
