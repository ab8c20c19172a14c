package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/experiments"
	"fleetsim/internal/metrics"
	"fleetsim/internal/snapshot"
	"fleetsim/internal/units"
	"fleetsim/internal/xrand"
)

// The hotlaunch and zram-swam workloads: the paper's §7.2 protocol, driven
// call by call. An episode boots one device per policy and cold-launches
// the 17-app pressure population on each (the set-up), then runs each
// policy's device for fig13Rounds randomized switch rounds with a Use
// between switches, one policy after another. Episode e runs at seed
// + e<<32, so episode 0 at seed 1 is exactly "fleetsim -quick fig13".
//
// A run is a fixed amount of work: hotEpisodesPerSecond episodes for each
// second asked for, at least hotEpisodes. Up to --seconds 23 (hotlaunch)
// or 17 (zram-swam) that is the minimum of three episodes, which takes
// 27-40 s or 18-26 s on a 2-vCPU Xeon host. Fixed work keeps every count
// and simulated result independent of host speed. Several short episodes, rather than one long
// device life, average over independent devices (steadier across seeds)
// and bound live memory, since a device's heaps grow with simulated time.
const (
	hotScale     = 32
	hotEpisodes  = 3
	fig13Rounds  = 4 // experiments.Params.Quick rounds
	pressureApps = 17
	useTime      = 10 * time.Second
	// idleTail is the screen-off period each device idles after its ops,
	// outside the measured phase, so the traced run sees the Idle path.
	idleTail = 60 * time.Second
	// orderSalt is xor-ed into the seed for the switch order, as the
	// §7.2 protocol in internal/experiments does.
	orderSalt = 0x9e3779b97f4a7c15
)

var hotEpisodesPerSecond = map[string]float64{"hotlaunch": 0.15, "zram-swam": 0.2}

func hotPolicies(workload string) []android.PolicyKind {
	if workload == "zram-swam" {
		return []android.PolicyKind{android.PolicySwam, android.PolicyFleet}
	}
	return []android.PolicyKind{android.PolicyAndroid, android.PolicyMarvin, android.PolicyFleet}
}

// pressurePopulation is the Fig. 13 apps padded with other Table 3 apps
// (and synthetic background services past Table 3) to pressureApps.
func pressurePopulation() []apps.Profile {
	all := apps.CommercialProfiles(hotScale)
	measured := map[string]bool{}
	for _, n := range experiments.Fig13Apps {
		measured[n] = true
	}
	var pop []apps.Profile
	for _, pr := range all {
		if measured[pr.Name] {
			pop = append(pop, pr)
		}
	}
	for _, pr := range all {
		if len(pop) < pressureApps && !measured[pr.Name] {
			pop = append(pop, pr)
		}
	}
	for i := 0; len(pop) < pressureApps; i++ {
		pop = append(pop, apps.SyntheticProfile(fmt.Sprintf("bgservice-%d", i), 512, 64*units.MiB/hotScale))
	}
	return pop
}

// hotDevice is one policy's device and its processes, indexed like the
// population.
type hotDevice struct {
	pol    android.PolicyKind
	sys    *android.System
	procs  []*android.Proc
	issued int64 // launches the benchmark caused (cold fills + switches to another app)
}

// setupHot boots one device per policy and cold-launches the population.
func setupHot(o runOpts, p *pass, pop []apps.Profile) []*hotDevice {
	var devs []*hotDevice
	for _, pol := range hotPolicies(o.workload) {
		cfg := android.DefaultSystemConfig(pol, hotScale)
		if o.workload == "zram-swam" {
			cfg.Device = android.Pixel3Zram(hotScale)
		}
		cfg.Seed = o.seed
		sp := o.tr.begin("android.NewSystem", -1)
		d := &hotDevice{pol: pol, sys: android.NewSystem(cfg)}
		o.tr.end(sp)
		for _, pr := range pop {
			sp = o.tr.begin("android.Launch", -1)
			d.procs = append(d.procs, d.sys.Launch(pr))
			o.tr.end(sp)
			d.issued++
			use(o, p, d.sys, -1)
		}
		devs = append(devs, d)
	}
	return devs
}

// use runs Use(useTime) inside a span and books the simulated time.
func use(o runOpts, p *pass, sys *android.System, op int64) time.Duration {
	before := sys.Clock.Now()
	sp := o.tr.begin("android.Use", op)
	sys.Use(useTime)
	o.tr.end(sp)
	adv := sys.Clock.Now() - before
	p.simBySpan["android.Use"] += adv.Seconds()
	return adv
}

func systemDigest(sys *android.System) string {
	d := snapshot.Capture(sys)
	return fmt.Sprintf("%016x.%016x.%016x", uint64(d.VMem), uint64(d.Heap), uint64(d.Android))
}

func runHotLaunch(o runOpts) (*pass, error) {
	p := newPass()
	episodes := max(hotEpisodes, int(math.Round(o.seconds*hotEpisodesPerSecond[o.workload])))
	perApp := map[android.PolicyKind]map[string]*metrics.Sample{}
	var fleetHot []float64
	var fleetAlive, fleetLaunches float64
	measured := map[string]bool{}
	for _, n := range experiments.Fig13Apps {
		measured[n] = true
	}
	var setup setupClock
	var opID int64
	p.whole.start()
	for ep := 0; ep < episodes; ep++ {
		// Episode 0 runs at the seed itself, so at seed 1 it is exactly
		// "fleetsim -quick fig13".
		epOpts := o
		epOpts.seed = o.seed + uint64(ep)<<32
		setup.begin()
		sp := o.tr.begin("setup", -1)
		devs := setupHot(epOpts, p, pressurePopulation())
		o.tr.end(sp)
		setup.end()
		for i, d := range devs {
			perApp[d.pol] = sampleMap(perApp[d.pol])
			order := xrand.New(epOpts.seed ^ orderSalt)
			p.meter.start()
			crashed := false
		rounds:
			for round := 0; round < fig13Rounds; round++ {
				for _, pi := range order.Perm(len(d.procs)) {
					t0 := now()
					top := o.tr.begin("op", opID)
					target := d.procs[pi]
					switched := d.sys.Foreground() != target
					wasAlive := target.Alive()
					var lat, adv time.Duration
					var np *android.Proc
					err := guard(func() {
						sp := o.tr.begin("android.SwitchTo", opID)
						lat, np = d.sys.SwitchTo(target)
						o.tr.end(sp)
						adv = use(o, p, d.sys, opID)
					})
					p.ops++
					opID++
					if err != nil {
						// The device's state is unknown after a panic: count
						// the op as failed and abandon the device.
						o.tr.abort(top)
						p.failed++
						p.fail("%s episode %d: %v", d.pol, ep, err)
						crashed = true
						break rounds
					}
					o.tr.end(top)
					p.addOp(t0)
					d.procs[pi] = np
					p.simSeconds += adv.Seconds() + lat.Seconds()
					latMS := float64(lat) / float64(time.Millisecond)
					if measured[np.App.Name] {
						sampleFor(perApp[d.pol], fmt.Sprintf("%d/%s", ep, np.App.Name)).Add(latMS)
					}
					if !switched {
						continue
					}
					d.issued++
					if d.pol == android.PolicyFleet {
						if wasAlive {
							fleetHot = append(fleetHot, latMS)
						}
						fleetAlive += float64(d.sys.AliveCount())
						fleetLaunches++
					}
				}
			}
			if crashed {
				p.meter.stop()
				devs[i] = nil
				continue
			}
			p.meter.stop()
			checkpointHot(o, p, d, fmt.Sprintf("e%d.%s", ep, d.pol), int64(fig13Rounds*len(d.procs)))
			before := d.sys.Clock.Now()
			sp := o.tr.begin("android.Idle", -1)
			d.sys.Idle(idleTail)
			o.tr.end(sp)
			p.simBySpan["android.Idle"] += (d.sys.Clock.Now() - before).Seconds()
			addHostNorm(p, d.sys)
			devs[i] = nil // a finished device's heaps are the bulk of live memory
		}
	}
	p.whole.stop()
	setup.result(p)

	p.fleetP50, p.fleetP95 = percentile(fleetHot, 50), percentile(fleetHot, 95)
	if fleetLaunches > 0 {
		p.fleetCached = fleetAlive / fleetLaunches
	}
	if o.workload == "hotlaunch" {
		p.counts["android.fleet_speedup_p50"] = medianSpeedup(perApp[android.PolicyAndroid], perApp[android.PolicyFleet])
		if o.seed == 1 {
			crossCheckFig13(o.refs, p, perApp[android.PolicyFleet])
		}
	}
	if ins := p.counts["vmem.swap_ins"]; ins > 0 {
		p.counts["vmem.refault_frac"] = p.counts["vmem.refaults"] / ins
	}
	if n := p.counts["android.alive_samples"]; n > 0 {
		p.counts["android.alive_mean"] = p.counts["android.alive_sum"] / n
	}
	return p, nil
}

// checkpointHot records a device's digest and exact counts once its ops
// are done, and checks the device's conservation laws.
func checkpointHot(o runOpts, p *pass, d *hotDevice, key string, prefixOps int64) {
	sp := o.tr.begin("snapshot.Capture", -1)
	p.digests[key] = systemDigest(d.sys)
	o.tr.end(sp)
	p.digestOps[key] = prefixOps
	if v := d.sys.CheckInvariants(); len(v) > 0 {
		p.fail("%s: %d cross-layer invariant violations, first: %s", key, len(v), v[0])
		p.failed += prefixOps
	}
	m := d.sys.M
	var hot, cold int64
	for _, l := range m.Launches {
		if l.Hot {
			hot++
		} else {
			cold++
		}
	}
	p.launchesIssued += d.issued
	p.launchesRecorded += hot + cold
	if hot+cold != d.issued {
		p.fail("%s: issued %d launches, android recorded %d hot + %d cold", key, d.issued, hot, cold)
	}
	c := p.counts
	c["android.hot_launches"] += float64(hot)
	c["android.cold_launches"] += float64(cold)
	c["android.kills"] += float64(m.Kills)
	c["android.swam_kills"] += float64(m.SwamKills)
	for _, n := range m.AliveTrace {
		c["android.alive_sum"] += float64(n)
		c["android.alive_samples"]++
	}
	for _, g := range m.GCs {
		c["gc.collections"]++
		c["gc.objects_traced"] += float64(g.ObjectsTraced)
		c["gc.bytes_copied"] += float64(g.BytesCopied)
		c["gc.pause_ms"] += float64(g.Pause) / float64(time.Millisecond)
		c["gc.fault_stall_ms"] += float64(g.FaultStall) / float64(time.Millisecond)
	}
	for _, pr := range d.sys.Procs() {
		c["heap.objects_allocated"] += float64(pr.App.H.Stats().Allocated)
	}
	st := d.sys.VM.Stats()
	c["vmem.major_faults"] += float64(st.MajorFaults)
	c["vmem.swap_ins"] += float64(st.SwapIns)
	c["vmem.swap_outs"] += float64(st.SwapOuts)
	c["vmem.refaults"] += float64(st.Refaults)
	c["vmem.fault_stall_ms"] += float64(st.FaultStall) / float64(time.Millisecond)
	c["vmem.direct_reclaim_ms"] += float64(st.DirectReclaimStall) / float64(time.Millisecond)
	z := d.sys.VM.Swap.BackendStats()
	c["zram.writebacks"] += float64(z.Writebacks)
	c["zram.fallthroughs"] += float64(z.Fallthroughs)
	c["zram.full_rejects"] += float64(z.FullRejects)
	c["zram.compress_cpu_ms"] += float64(z.CompressCPU) / float64(time.Millisecond)
	c["zram.decompress_cpu_ms"] += float64(z.DecompressCPU) / float64(time.Millisecond)
}

// addHostNorm adds a finished device's whole-life work counts, which
// turn CPU-profile shares into host time per unit of work.
func addHostNorm(p *pass, sys *android.System) {
	for _, g := range sys.M.GCs {
		p.objectsTraced += float64(g.ObjectsTraced)
	}
	for _, pr := range sys.Procs() {
		p.objectsAllocated += float64(pr.App.H.Stats().Allocated)
	}
	st := sys.VM.Stats()
	p.faults += float64(st.MinorFaults + st.MajorFaults)
}

func sampleMap(m map[string]*metrics.Sample) map[string]*metrics.Sample {
	if m == nil {
		m = map[string]*metrics.Sample{}
	}
	return m
}

func sampleFor(m map[string]*metrics.Sample, k string) *metrics.Sample {
	s, ok := m[k]
	if !ok {
		s = &metrics.Sample{}
		m[k] = s
	}
	return s
}

// medianSpeedup is Fig. 13m's headline: the mean over the Fig. 13 apps
// of Android's median launch time over Fleet's, here over every
// episode's apps (keys "<episode>/<app>").
func medianSpeedup(android, fleet map[string]*metrics.Sample) float64 {
	keys := make([]string, 0, len(fleet))
	for k := range fleet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	var n int
	for _, k := range keys {
		a, f := android[k], fleet[k]
		if a == nil || f.Median() <= 0 {
			continue
		}
		sum += a.Median() / f.Median()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// crossCheckFig13 checks that at fig13's parameters episode 0's per-app
// Fleet medians are the ones "fleetsim -quick fig13" prints
// (rounded to whole milliseconds as printed), so the benchmark runs the
// paper's protocol.
func crossCheckFig13(refs refSet, p *pass, fleet map[string]*metrics.Sample) {
	for _, app := range experiments.Fig13Apps {
		want, ok := refs.Fig13[app]
		s := fleet["0/"+app]
		got := math.NaN()
		if s != nil {
			got = math.Round(s.Median())
		}
		if !ok || got != want {
			p.fail("fig13 cross-check: %s Fleet median %v ms, fleetsim -quick fig13 prints %v", app, got, want)
			p.failed += p.digestOps["e0."+android.PolicyFleet.String()]
		}
	}
}
