package experiments

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fleetsim/internal/android"
	"fleetsim/internal/apps"
	"fleetsim/internal/snapshot"
)

// The golden manifest pins simulator output across refactors: a change that
// claims "same behaviour" must leave testdata/golden.txt byte-identical.
// Each line is "<section> <key> <values>":
//
//   - "digest <policy>/<seed>/<step>" holds the snapshot digests (vmem, heap,
//     android, virtual time) of one step of a launch/switch/use script;
//     every GC cost feeds back into scheduling, so a one-nanosecond
//     divergence anywhere in the memory stack shows up within a few steps.
//   - "exp <name>" holds the FNV-1a digest of a registered experiment's
//     rendered output at detParams(7).
//
// The manifest was generated while the heap still carried two edge layouts
// (per-object slices and the CSR arena) that were checked bitwise-equal
// against each other, so matching it proves the remaining CSR layout
// equivalent to both. -short (and -race) checks a subset against the full
// file; -update regenerates a section and must run the full set. A changed
// line must be explained where the change is recorded.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt")

const goldenPath = "testdata/golden.txt"

// goldenShortExperiments is the representative subset -short and -race
// check: the hot-launch pipeline on both backends, the capacity sweep and
// the simplest launch comparison.
var goldenShortExperiments = map[string]bool{
	"fig2": true, "fig11a": true, "fig13": true, "sec74": true, "extzram": true,
}

// goldenDigests runs one device per policy through a launch/switch/use
// script and returns its per-step digest lines.
func goldenDigests(pol android.PolicyKind, seed uint64) []string {
	cfg := android.DefaultSystemConfig(pol, 64)
	cfg.Seed = seed
	sys := android.NewSystem(cfg)
	var lines []string
	sample := func() {
		d := snapshot.Capture(sys)
		lines = append(lines, fmt.Sprintf("digest %v/%d/%d vmem=%016x heap=%016x android=%016x at=%d",
			pol, seed, len(lines), uint64(d.VMem), uint64(d.Heap), uint64(d.Android), int64(d.At)))
	}
	for _, pr := range apps.CommercialProfiles(64)[:4] {
		sys.Launch(pr)
		sys.Use(2 * time.Second)
		sample()
	}
	for r := 0; r < 2; r++ {
		for _, p := range sys.Procs() {
			_, p = sys.SwitchTo(p)
			sys.Use(1500 * time.Millisecond)
			sample()
		}
	}
	return lines
}

// goldenExperiment returns the manifest line of one registered experiment.
func goldenExperiment(s Spec) string {
	h := fnv.New64a()
	h.Write([]byte(s.Run(detParams(7))))
	return fmt.Sprintf("exp %s %016x", s.Name, h.Sum64())
}

// goldenSections is the order of the manifest's sections.
var goldenSections = []string{"digest", "exp"}

// goldenKey returns a manifest line's "<section> <key>" prefix.
func goldenKey(line string) string {
	f := strings.Fields(line)
	if len(f) < 2 {
		return line
	}
	return f[0] + " " + f[1]
}

// readGolden returns the manifest's lines (comments and blanks dropped), or
// nil if the file does not exist yet.
func readGolden(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(b), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}

// loadGolden returns one manifest section keyed by goldenKey.
func loadGolden(t *testing.T, section string) map[string]string {
	t.Helper()
	lines := readGolden(t)
	if lines == nil && !*updateGolden {
		t.Fatalf("%s is missing (regenerate with -update)", goldenPath)
	}
	want := map[string]string{}
	for _, line := range lines {
		if strings.HasPrefix(line, section+" ") {
			want[goldenKey(line)] = line
		}
	}
	return want
}

// compareGolden checks one computed line against the section and removes
// its key, so finishGolden can report the keys nothing produced.
func compareGolden(t *testing.T, want map[string]string, line string) {
	t.Helper()
	if *updateGolden {
		return
	}
	k := goldenKey(line)
	w, ok := want[k]
	delete(want, k)
	switch {
	case !ok:
		t.Errorf("%s: missing from %s (regenerate with -update)", k, goldenPath)
	case w != line:
		t.Errorf("%s diverges from the manifest\n got: %s\nwant: %s", k, line, w)
	}
}

// finishGolden ends a section check. With -update it rewrites the
// section's lines to got, keeping the other sections; otherwise, when got
// covers the whole section (full), it reports the lines left in want — in
// the file but no longer produced — as stale.
func finishGolden(t *testing.T, section string, want map[string]string, got []string, full bool) {
	t.Helper()
	if !*updateGolden {
		if !full {
			return
		}
		stale := make([]string, 0, len(want))
		for k := range want {
			stale = append(stale, k)
		}
		sort.Strings(stale)
		for _, k := range stale {
			t.Errorf("%s: in %s but no longer produced (regenerate with -update)", k, goldenPath)
		}
		return
	}
	if !full {
		t.Fatal("-update must regenerate the full manifest: run it without -short and -race")
	}
	old := readGolden(t)
	var b strings.Builder
	b.WriteString("# Simulator output digests; regenerate with\n" +
		"#   go test ./internal/experiments -run 'TestEdgeLayout' -update\n")
	for _, sec := range goldenSections {
		lines := got
		if sec != section {
			lines = nil
			for _, line := range old {
				if strings.HasPrefix(line, sec+" ") {
					lines = append(lines, line)
				}
			}
		}
		for _, line := range lines {
			b.WriteString(line + "\n")
		}
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenShort reports whether the manifest tests check only their subset.
func goldenShort() bool { return testing.Short() || raceEnabled }

// TestEdgeLayoutDigestEquivalence drives one device per policy through a
// launch/switch/use script, samples snapshot digests at every step and
// compares them with the manifest's digest section. -short runs seed 1
// only.
func TestEdgeLayoutDigestEquivalence(t *testing.T) {
	seeds := []uint64{1, 7, 42}
	if goldenShort() {
		seeds = seeds[:1]
	}
	want := loadGolden(t, "digest")
	var got []string
	for _, pol := range []android.PolicyKind{android.PolicyAndroid, android.PolicyMarvin, android.PolicyFleet} {
		for _, seed := range seeds {
			for _, line := range goldenDigests(pol, seed) {
				compareGolden(t, want, line)
				got = append(got, line)
			}
		}
	}
	finishGolden(t, "digest", want, got, !goldenShort())
}

// TestEdgeLayoutExperimentEquivalence sweeps the experiment registry: every
// registered experiment's output digest must equal the manifest's. -short
// runs a representative subset; the full sweep covers every registered
// experiment, each run once.
func TestEdgeLayoutExperimentEquivalence(t *testing.T) {
	want := loadGolden(t, "exp")
	var got []string
	for _, s := range Registry() {
		if goldenShort() && !goldenShortExperiments[s.Name] {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			line := goldenExperiment(s)
			compareGolden(t, want, line)
			got = append(got, line)
		})
	}
	finishGolden(t, "exp", want, got, !goldenShort())
}
