package experiments

import (
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/snapshot"
	"fleetsim/internal/telemetry"
)

func chaosTestParams() Params {
	p := DefaultParams()
	p.Rounds = 1
	p.PressureApps = 6
	return p
}

// TestChaosResume interrupts a checkpointed campaign after one cell, then
// resumes it from the journal. The resumed campaign's rows must be bitwise
// identical to an uninterrupted run of the same campaign.
func TestChaosResume(t *testing.T) {
	p := chaosTestParams()
	dir := t.TempDir()
	path := filepath.Join(dir, "chaos.jsonl")

	// Reference: the uninterrupted campaign.
	want := ChaosSupervised(p, ChaosOpts{Seeds: 1})
	if !want.Passed() {
		t.Fatalf("reference campaign failed:\n%s", FormatChaosReport(want))
	}

	// Interrupted run: the first Interrupted poll admits one cell, the rest
	// are skipped — modeling SIGINT landing mid-campaign.
	st, err := snapshot.Open(path, ChaosCampaignKey(p))
	if err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int32
	partial := ChaosSupervised(p, ChaosOpts{
		Seeds:       1,
		Store:       st,
		Interrupted: func() bool { return polls.Add(1) > 1 },
	})
	st.Close()
	if partial.Skipped == 0 {
		t.Fatal("interrupt skipped nothing; cannot exercise resume")
	}
	if partial.Skipped+len(partial.Rows) != len(want.Rows) {
		t.Fatalf("skipped %d + ran %d != %d cells", partial.Skipped, len(partial.Rows), len(want.Rows))
	}

	// Resume: reopen the journal under the same campaign key.
	st2, err := snapshot.Open(path, ChaosCampaignKey(p))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Resumed() == 0 {
		t.Fatal("journal replay found no checkpointed cells")
	}
	got := ChaosSupervised(p, ChaosOpts{Seeds: 1, Store: st2})
	if got.Resumed != st2.Resumed() {
		t.Errorf("Resumed = %d, want %d (every checkpointed cell answered from the store)",
			got.Resumed, st2.Resumed())
	}
	if got.Skipped != 0 || len(got.Errors) != 0 {
		t.Fatalf("resumed campaign incomplete: %+v", got)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("resumed rows differ from uninterrupted run:\n got: %+v\nwant: %+v", got.Rows, want.Rows)
	}
}

// TestChaosDeadlineDoesNotAbortCampaign gives every cell an impossible
// deadline: all legs must fail as timeouts, yet the campaign still returns a
// full report with per-cell error rows instead of aborting.
func TestChaosDeadlineDoesNotAbortCampaign(t *testing.T) {
	p := chaosTestParams()
	rep := ChaosSupervised(p, ChaosOpts{Seeds: 1, Deadline: time.Nanosecond})
	if len(rep.Errors) == 0 {
		t.Fatal("1ns deadline produced no leg errors")
	}
	if len(rep.Rows) != len(rep.Errors) {
		t.Fatalf("%d rows for %d failed legs; failed cells must still get rows", len(rep.Rows), len(rep.Errors))
	}
	for _, le := range rep.Errors {
		if !le.TimedOut {
			t.Errorf("leg %d failed but not via timeout: %v", le.Index, le.Err)
		}
	}
	for _, r := range rep.Rows {
		if r.Err == "" {
			t.Errorf("row %s/%d missing Err on a timed-out cell", r.Profile, r.Seed)
		}
		if r.Clean() {
			t.Errorf("failed cell %s/%d reported clean", r.Profile, r.Seed)
		}
	}
	if rep.Passed() {
		t.Error("campaign with failed legs reported Passed")
	}
}

// TestCheckpointedLegSkipsRerun proves a leg recorded in the checkpoint
// store is answered without re-running the simulation once the in-process
// memo is gone (a resumed process), that the summary survives the JSON
// round trip intact, and that the restored leg publishes the same
// sim-telemetry observations as the fresh run did.
func TestCheckpointedLegSkipsRerun(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	p.PressureApps = 4
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	st, err := snapshot.Open(path, SweepCampaignKey(p))
	if err != nil {
		t.Fatal(err)
	}
	SetCheckpointStore(st)
	defer SetCheckpointStore(nil)
	defer telemetry.SetSimRegistry(nil)

	measured := []string{Fig13Apps[0]}
	leg := func() (*legSummary, *LegCounts, string) {
		reg := telemetry.NewRegistry()
		telemetry.SetSimRegistry(reg)
		var c LegCounts
		ls := runLeg(p.WithLegCounts(&c), measured, systemConfig(p, android.PolicyFleet))
		return ls, &c, simExposition(t, reg)
	}
	resetLegs()
	first, c, firstExpo := leg()
	if c.Run.Load() != 1 {
		t.Fatalf("first leg: %d run, want 1", c.Run.Load())
	}
	st.Close()

	// Reopen with an empty memo: the store must answer without re-running.
	st2, err := snapshot.Open(path, SweepCampaignKey(p))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	SetCheckpointStore(st2)
	resetLegs()
	second, c, secondExpo := leg()
	if c.Restored.Load() != 1 || c.Run.Load() != 0 {
		t.Fatalf("checkpointed leg: %d run, %d restored; want 0 and 1", c.Run.Load(), c.Restored.Load())
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("restored summary differs:\nfresh:    %+v\nrestored: %+v", first, second)
	}
	if firstExpo != secondExpo {
		t.Errorf("restored leg published different telemetry:\nfresh:\n%s\nrestored:\n%s", firstExpo, secondExpo)
	}
	if firstExpo == "" {
		t.Error("leg published no telemetry")
	}
}
