package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/metrics"
	"fleetsim/internal/population"
)

// popPrefix is how many devices fix the population workload's simulated
// results and digest; later devices only add host-time samples. The run
// simulates popDevicesPerSecond devices for each second asked for, at
// least popPrefix. Up to --seconds 20 that is the minimum of 16 devices,
// which takes 17-25 s on a 2-vCPU Xeon host.
const (
	popPrefix           = 16
	popDevicesPerSecond = 0.8
)

// popDevices bounds the device index space; devices expand lazily, so
// the size costs nothing.
const popDevices = 1 << 20

func popSpec(seed uint64) population.Spec {
	spec := population.DefaultSpec()
	spec.Seed = seed
	spec.Devices = popDevices
	spec.Policies = []android.PolicyKind{android.PolicyAndroid, android.PolicyFleet}
	return spec
}

func runPopulation(o runOpts) (*pass, error) {
	p := newPass()
	var spec population.Spec
	var catalog []apps.Profile
	var setup setupClock
	p.whole.start()
	for rep := 0; rep < o.reps; rep++ {
		setup.begin()
		sp := o.tr.begin("setup", -1)
		spec = popSpec(o.seed)
		err := spec.Validate()
		catalog = apps.CommercialProfiles(spec.Scale)
		if err == nil {
			// Warm-up: one device outside the measured index range pays
			// the lazy set-up (Go heap growth) before anything is timed.
			// It comes from the seed-1 fleet, so every run sets up the
			// same work.
			wsp := o.tr.begin("population.SimulateDevice", -1)
			popSpec(1).SimulateDevice(popDevices-1, catalog, population.NewAgg())
			o.tr.end(wsp)
		}
		o.tr.end(sp)
		if err != nil {
			return nil, err
		}
		setup.end()
	}
	setup.result(p)

	agg := population.NewAgg()
	var prefix []*population.Agg
	n := max(popPrefix, int(math.Round(o.seconds*popDevicesPerSecond)))
	p.meter.start()
	for i := 0; i < n; i++ {
		t0 := now()
		top := o.tr.begin("op", int64(i))
		dev := population.NewAgg()
		err := guard(func() {
			sp := o.tr.begin("population.SimulateDevice", int64(i))
			spec.SimulateDevice(i, catalog, dev)
			o.tr.end(sp)
			sp = o.tr.begin("population.Merge", int64(i))
			agg.Merge(dev)
			o.tr.end(sp)
		})
		p.ops++
		if err != nil {
			// Devices are independent: count this one as failed and go
			// on. The prefix digest then shows the gap too.
			o.tr.abort(top)
			p.failed++
			p.fail("device %d: %v", i, err)
		} else {
			o.tr.end(top)
			p.addOp(t0)
		}
		p.simSeconds += deviceSimSeconds(spec, i, len(catalog))
		if i < popPrefix {
			prefix = append(prefix, dev)
		}
		if i == popPrefix-1 {
			p.meter.stop()
			checkpointPopulation(o, p, agg, prefix)
			p.meter.start()
		}
	}
	p.meter.stop()
	p.whole.stop()
	return p, nil
}

// deviceSimSeconds estimates the simulated time SimulateDevice spends on
// device i. SimulateDevice does not report its device's clock, so this
// follows its schedule from the device's public plan: per policy, a
// 250 ms use after each install, the warm-up idle, and every session's
// foreground use and screen-off gap. Launch time is left out, which
// hotlaunch and zram-swam count, so sim_s_per_cpu_s is comparable across
// runs of population but not with the other workloads. A change to
// SimulateDevice's schedule has to be copied here.
func deviceSimSeconds(spec population.Spec, i, nApps int) float64 {
	dev := spec.ExpandDevice(i, nApps)
	var per time.Duration
	for _, s := range dev.Plan {
		per += s.Fg + s.Gap
	}
	var total time.Duration
	for _, pol := range spec.Policies {
		warm := android.DefaultSystemConfig(pol, spec.Scale).BgGCPeriod + 15*time.Second
		total += time.Duration(len(dev.Apps))*250*time.Millisecond + warm + per
	}
	return total.Seconds()
}

// checkpointPopulation records the merged digest of the first popPrefix
// devices and their simulated results. Merging the same per-device
// aggregates in reverse order must give the same digest.
func checkpointPopulation(o runOpts, p *pass, agg *population.Agg, prefix []*population.Agg) {
	p.digests["agg"] = agg.Digest()
	p.digestOps["agg"] = int64(len(prefix))
	rev := population.NewAgg()
	for i := len(prefix) - 1; i >= 0; i-- {
		rev.Merge(prefix[i])
	}
	if d := rev.Digest(); d != p.digests["agg"] {
		p.fail("population: merge order changed the digest: %s forward, %s reversed", p.digests["agg"], d)
		p.failed += int64(len(prefix))
	}

	keys := make([]string, 0, len(agg.Cells))
	for k := range agg.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fleetHot := metrics.NewSketch()
	var fleetHotN, fleetColdN int64
	c := p.counts
	for _, k := range keys {
		cell := agg.Cells[k]
		hot, cold := cell.Counts.Get("launch_hot"), cell.Counts.Get("launch_cold")
		c["android.hot_launches"] += float64(hot)
		c["android.cold_launches"] += float64(cold)
		for _, kind := range []string{"kill_hard", "kill_psi", "kill_oom", "kill_crash"} {
			c["android.kills"] += float64(cell.Counts.Get(kind))
		}
		c["vmem.swap_ins"] += float64(cell.Counts.Get("swap_in"))
		c["vmem.swap_outs"] += float64(cell.Counts.Get("swap_out"))
		c["gc.collections"] += float64(cell.GCPause.Count())
		if strings.HasPrefix(k, android.PolicyFleet.String()+"|") {
			fleetHot.Merge(cell.Hot)
			fleetHotN += hot
			fleetColdN += cold
		}
	}
	p.fleetP50, p.fleetP95 = fleetHot.Quantile(0.5), fleetHot.Quantile(0.95)
	// Agg keeps no per-launch alive counts, so the cached-apps figure is
	// the installed apps times the share of session launches that found
	// their app still cached.
	if n := fleetHotN + fleetColdN; n > 0 {
		p.fleetCached = float64(popSpec(o.seed).AppsPerDevice) * float64(fleetHotN) / float64(n)
	}
}
