package experiments

import (
	"reflect"
	"testing"
	"time"

	"fleetsim/internal/runner"
)

// detParams keeps the equivalence runs cheap enough to repeat nine times
// per experiment (3 seeds × serial + two parallel runs) under -race.
// Devices bounds the population campaign wherever a sweep runs the whole
// registry — without it the campaign default (256 devices) dominates the
// package's test budget.
func detParams(seed uint64) Params {
	return Params{
		Scale:        64,
		Rounds:       2,
		UseTime:      2 * time.Second,
		PressureApps: 8,
		Seed:         seed,
		Devices:      6,
	}
}

// TestParallelSerialEquivalence is the tentpole invariant: parallel and
// serial executions of an experiment must produce deep-equal rows, and two
// parallel runs must agree with each other. Every experiment leg derives
// its randomness from Params alone, so any divergence means shared mutable
// state leaked between legs.
func TestParallelSerialEquivalence(t *testing.T) {
	cases := []struct {
		name string
		run  func(Params) any
	}{
		{"Fig13", func(p Params) any { return Fig13(p) }},
		{"Fig13zram", func(p Params) any { p.Backend = "zram"; return Fig13(p) }},
		{"Fig11a", func(p Params) any { return Fig11a(p) }},
		{"Sec74", func(p Params) any { return Sec74(p) }},
		{"ExtSwam", func(p Params) any { return ExtSwam(p) }},
	}
	defer runner.SetParallelism(0)
	for _, seed := range []uint64{1, 7, 42} {
		for _, c := range cases {
			p := detParams(seed)

			// Each run starts from an empty leg memo; otherwise the
			// parallel runs would only read back the serial run's legs.
			resetLegs()
			runner.SetParallelism(1)
			serial := c.run(p)

			runner.SetParallelism(4)
			resetLegs()
			parallelA := c.run(p)
			resetLegs()
			parallelB := c.run(p)

			if !reflect.DeepEqual(serial, parallelA) {
				t.Errorf("seed %d %s: parallel result differs from serial\nserial:   %+v\nparallel: %+v",
					seed, c.name, serial, parallelA)
			}
			if !reflect.DeepEqual(parallelA, parallelB) {
				t.Errorf("seed %d %s: two parallel runs disagree\nfirst:  %+v\nsecond: %+v",
					seed, c.name, parallelA, parallelB)
			}
		}
	}
}
