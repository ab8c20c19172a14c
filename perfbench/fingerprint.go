package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"fleetsim/internal/buildinfo"
)

// fingerprint identifies the host and build a result came from. Results
// are only comparable when the host half (CPU count, GOMAXPROCS, CPU
// model, Go version) matches; the commit says which build was measured.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readFingerprint() fingerprint {
	bi := buildinfo.Read()
	commit := bi.Revision
	if bi.Dirty {
		commit += "-dirty"
	}
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Go:         bi.Go,
		Commit:     commit,
	}
}

// host is the part of the fingerprint two compared results must share.
func (f fingerprint) host() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s", f.NumCPU, f.GOMAXPROCS, f.CPUModel, f.Go)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// compareMain implements "perfbench compare a.json b.json": it prints
// b's metrics as ratios of a's, and refuses (exit 2) when the two
// records come from different hosts or workloads.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base.json> <new.json>")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	if err := comparable(recs[0], recs[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	a, b := recs[0].Result.Metrics, recs[1].Result.Metrics
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %s -> %s\n", recs[0].Workload, recs[0].Fingerprint.Commit, recs[1].Fingerprint.Commit)
	for _, k := range names {
		bv, ok := b[k]
		if !ok {
			continue
		}
		ratio := "n/a"
		if a[k].Value != 0 {
			ratio = fmt.Sprintf("%.4f", bv.Value/a[k].Value)
		}
		fmt.Printf("  %-32s %14.6g -> %14.6g %-8s ratio %s\n", k, a[k].Value, bv.Value, a[k].Unit, ratio)
	}
	return 0
}

// comparable reports why two records must not be compared, if they
// must not.
func comparable(a, b record) error {
	if a.Fingerprint.host() != b.Fingerprint.host() {
		return fmt.Errorf("host fingerprints differ:\n  %s\n  %s", a.Fingerprint.host(), b.Fingerprint.host())
	}
	if a.Workload != b.Workload || a.Traced != b.Traced {
		return fmt.Errorf("records measure different things: %s traced=%v vs %s traced=%v",
			a.Workload, a.Traced, b.Workload, b.Traced)
	}
	return nil
}

// refSet holds reference digests: workload -> seed -> digest name ->
// digest. fig13 maps the 12 Fig. 13 apps to the Fleet medians (ms) that
// "fleetsim -quick fig13" prints at seed 1.
type refSet struct {
	Digests map[string]map[string]map[string]string `json:"digests"`
	Fig13   map[string]float64                      `json:"fig13_fleet_medians_seed1"`
}

//go:embed refs.json
var refsJSON []byte

func builtinRefs() refSet {
	var r refSet
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		// The file is compiled in; a parse error is a broken build.
		panic(fmt.Sprintf("perfbench: refs.json: %v", err))
	}
	return r
}

// checkRefs compares a pass's digests with the references for its seed,
// if there are any. A mismatched or missing digest fails the ops that
// produced it (opsPerDigest) and is listed as a problem.
func checkRefs(refs refSet, workload string, seed uint64, p *pass) {
	want, ok := refs.Digests[workload][fmt.Sprint(seed)]
	if !ok {
		p.notes = append(p.notes, fmt.Sprintf("no reference digests for seed %d; checked determinism and conservation only", seed))
		return
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got := p.digests[k]; got != want[k] {
			p.fail("digest %s = %q, reference %q", k, got, want[k])
			p.failed += p.opsPerDigest(k)
		}
	}
}
