package experiments

import (
	"fmt"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/runner"
)

// Fig11Series is one line of Fig. 11: the number of alive apps after each
// of the launches.
type Fig11Series struct {
	Label string
	Alive []int
	Max   int
}

// runCapacity launches launches apps one after another, using each for
// useTime, and records the alive count after each launch.
func runCapacity(p Params, policy android.PolicyKind, noSwap bool, profiles []apps.Profile, label string) Fig11Series {
	cfg := systemConfig(p, policy)
	if noSwap {
		cfg.Device = android.Pixel3NoSwap(p.Scale)
	}
	sys := android.NewSystem(cfg)
	s := Fig11Series{Label: label}
	for _, pr := range profiles {
		sys.Launch(pr)
		sys.Use(p.UseTime + 5*time.Second)
		n := sys.AliveCount()
		s.Alive = append(s.Alive, n)
		if n > s.Max {
			s.Max = n
		}
	}
	return s
}

// syntheticFleet builds n synthetic apps of the given object size.
func syntheticFleet(p Params, objSize int32, n int) []apps.Profile {
	out := make([]apps.Profile, n)
	for i := range out {
		out[i] = apps.SyntheticProfile(fmt.Sprintf("synthetic-%c", 'A'+i), objSize, p.SyntheticFootprint())
	}
	return out
}

// capacityLegs runs the three standard policy legs over one profile fleet
// as independent pool tasks (each leg owns its System).
func capacityLegs(p Params, profiles []apps.Profile) []Fig11Series {
	policies := []android.PolicyKind{android.PolicyAndroid, android.PolicyMarvin, android.PolicyFleet}
	labels := []string{"Android", "Marvin", "Fleet"}
	return runner.MapN(len(policies), func(i int) Fig11Series {
		return runCapacity(p, policies[i], false, profiles, labels[i])
	})
}

// Fig11a: caching capacity with large-object (2048 B) synthetic apps.
func Fig11a(p Params) []Fig11Series {
	return capacityLegs(p, syntheticFleet(p, 2048, 28))
}

// Fig11b: caching capacity with small-object (512 B) synthetic apps —
// where Marvin's large-object threshold bites.
func Fig11b(p Params) []Fig11Series {
	return capacityLegs(p, syntheticFleet(p, 512, 28))
}

// Fig11c: caching capacity with the 18 commercial apps launched
// round-robin for two cycles (Marvin is excluded, as in the paper — its
// prototype cannot run commercial apps).
func Fig11c(p Params) []Fig11Series {
	all := apps.CommercialProfiles(p.Scale)
	two := append(append([]apps.Profile{}, all...), all...)
	// Relabel the second cycle so each launch creates a distinct process
	// only when the first one died; SwitchTo semantics are what the paper
	// uses, so run the cycle through an activity-manager walk instead.
	run := func(policy android.PolicyKind, noSwap bool, label string) Fig11Series {
		cfg := systemConfig(p, policy)
		if noSwap {
			cfg.Device = android.Pixel3NoSwap(p.Scale)
		}
		sys := android.NewSystem(cfg)
		s := Fig11Series{Label: label}
		procs := map[string]*android.Proc{}
		for _, pr := range two {
			if pp, ok := procs[pr.Name]; ok {
				_, np := sys.SwitchTo(pp)
				procs[pr.Name] = np
			} else {
				procs[pr.Name] = sys.Launch(pr)
			}
			sys.Use(p.UseTime)
			n := sys.AliveCount()
			s.Alive = append(s.Alive, n)
			if n > s.Max {
				s.Max = n
			}
		}
		return s
	}
	return runner.MapN(3, func(i int) Fig11Series {
		switch i {
		case 0:
			return run(android.PolicyAndroid, true, "Android w/o swap")
		case 1:
			return run(android.PolicyAndroid, false, "Android w/ swap")
		default:
			return run(android.PolicyFleet, false, "Fleet")
		}
	})
}

// Fig12aRow is one configuration of Fig. 12a: the background GC working
// set (objects accessed by the GC thread per cycle).
type Fig12aRow struct {
	Label         string
	MeanObjects   float64
	MedianObjects float64
}

// Fig12a measures the GC thread's working set while apps are cached, for
// Android, Fleet without BGC, and Fleet with BGC (§7.1's ~7× reduction).
func Fig12a(p Params) []Fig12aRow {
	pop, _ := pressurePopulation(p, Fig13Apps)
	pq := p
	if pq.Rounds > 4 {
		pq.Rounds = 4
	}
	run := func(policy android.PolicyKind, noBGC bool, label string) Fig12aRow {
		cfg := systemConfig(pq, policy)
		cfg.FleetNoBGC = noBGC
		sys := android.NewSystem(cfg)
		procs := map[string]*android.Proc{}
		for _, pr := range pop {
			procs[pr.Name] = sys.Launch(pr)
			sys.Use(pq.UseTime)
		}
		for r := 0; r < pq.Rounds; r++ {
			for _, pr := range pop {
				_, np := sys.SwitchTo(procs[pr.Name])
				procs[pr.Name] = np
				sys.Use(pq.UseTime)
			}
		}
		ws := sys.M.BackgroundGCWorkingSet("")
		return Fig12aRow{Label: label, MeanObjects: ws.Mean(), MedianObjects: ws.Median()}
	}
	return runner.MapN(3, func(i int) Fig12aRow {
		switch i {
		case 0:
			return run(android.PolicyAndroid, false, "Android")
		case 1:
			return run(android.PolicyFleet, true, "Fleet w/o BGC")
		default:
			return run(android.PolicyFleet, false, "Fleet w/ BGC")
		}
	})
}

// Fig12bPoint is one time bucket of Fig. 12b: objects accessed by mutator
// and GC during that interval.
type Fig12bPoint struct {
	TimeSec float64
	Mutator int64
	GC      int64
}

// Fig12bResult holds the Twitch access timelines for Android and Fleet.
type Fig12bResult struct {
	Android []Fig12bPoint
	Fleet   []Fig12bPoint
	// BackSec/FrontSec mark the fore→back and back→fore switches.
	BackSec, FrontSec float64
}

// Fig12b reproduces the Twitch timeline: foreground until 180 s, cached
// 180–480 s, foreground again after. Fleet's GC access counts collapse in
// the cached window; Android keeps touching the whole heap.
func Fig12b(p Params) Fig12bResult {
	res := Fig12bResult{BackSec: 180, FrontSec: 480}
	run := func(policy android.PolicyKind) []Fig12bPoint {
		cfg := systemConfig(p, policy)
		sys := android.NewSystem(cfg)
		twitch := *apps.ProfileByName("Twitch", p.Scale)
		filler := apps.SyntheticProfile("filler", 512, p.SyntheticFootprint()/4)

		tw := sys.Launch(twitch)
		sys.Use(180 * time.Second)
		sys.Launch(filler) // pushes Twitch to the background
		sys.Use(300 * time.Second)
		sys.SwitchTo(tw)
		sys.Use(120 * time.Second)

		// Bucket GC accesses (from GC records) per 10 s; the mutator
		// series is approximated from tick access rates.
		const bucket = 10.0
		n := int(sys.Clock.Now().Seconds()/bucket) + 1
		points := make([]Fig12bPoint, n)
		for i := range points {
			points[i].TimeSec = float64(i) * bucket
		}
		for _, g := range sys.M.GCs {
			if g.App != "Twitch" {
				continue
			}
			b := int(g.At.Seconds() / bucket)
			if b >= 0 && b < n {
				points[b].GC += g.ObjectsTraced
			}
		}
		// Mutator accesses: foreground ticks perform FgAccessesPerTick per
		// 100 ms; background ticks BgAccessesPerTick per second.
		for i := range points {
			t := points[i].TimeSec
			if t < 180 || t >= 480 {
				points[i].Mutator = int64(twitch.FgAccessesPerTick) * int64(bucket*10)
			} else {
				points[i].Mutator = int64(twitch.BgAccessesPerTick) * int64(bucket)
			}
		}
		return points
	}
	legs := runner.MapN(2, func(i int) []Fig12bPoint {
		if i == 0 {
			return run(android.PolicyAndroid)
		}
		return run(android.PolicyFleet)
	})
	res.Android, res.Fleet = legs[0], legs[1]
	return res
}

// FormatFig11 renders capacity series.
func FormatFig11(title string, series []Fig11Series) string {
	out := title + "\n"
	for _, s := range series {
		out += fmt.Sprintf("  %-18s max %2d  trace %v\n", s.Label, s.Max, s.Alive)
	}
	return out
}

// FormatFig12a renders the working-set comparison.
func FormatFig12a(rows []Fig12aRow) string {
	out := "Fig 12a — background GC working set (objects/GC)\n"
	base := rows[0].MeanObjects
	for _, r := range rows {
		red := 1.0
		if r.MeanObjects > 0 {
			red = base / r.MeanObjects
		}
		out += fmt.Sprintf("  %-16s mean %9.0f  median %9.0f  (%.1fx vs Android)\n",
			r.Label, r.MeanObjects, r.MedianObjects, red)
	}
	return out
}
