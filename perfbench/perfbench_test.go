package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"flame/internal/campaign"
)

// reduced is a small size for self-tests: every workload runs in
// seconds, and the digest pins (fullSize only) do not apply.
var reduced = size{
	campaignTrials: 3,
	stratBudget:    40,
	fleetTrials:    6,
	fleetShard:     3,
	sweep:          []string{"Triad", "BS"},
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesEmittedMetrics runs every workload at reduced size,
// untraced and traced, and checks that it emits exactly the metrics
// BENCHMARK.json names, each with its unit, and passes the
// correctness gate.
func TestSpecMatchesEmittedMetrics(t *testing.T) {
	spec := loadSpec(t)
	seen := map[string]bool{}
	for _, m := range append(append([]benchMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !validName.MatchString(m.Name) || !validUnit.MatchString(m.Unit) || seen[m.Name] ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil || !validName.MatchString(sw.Name) {
			t.Errorf("workload %q: not runnable", sw.Name)
			continue
		}
		t.Run(sw.Name, func(t *testing.T) {
			in := input{seed: defaultSeed, size: reduced, root: repoRoot(t)}
			plain, err := runPlain(w, in, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, plain, spec.EndToEnd)
			traced, err := runTraced(w, in, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, traced, spec.PerLayer)
			if traced.Metrics["gpu.sim_cycles"].Value <= 0 {
				t.Errorf("gpu.sim_cycles = %v", traced.Metrics["gpu.sim_cycles"].Value)
			}
		})
	}
}

func checkEmitted(t *testing.T, res *result, want []benchMetric) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		if m.Bound != nil && !(got.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
		}
	}
}

// TestOtherSeed checks that a non-default seed keeps every workload's
// seed-independent checks green, and changes the trial grid of the
// campaign workloads.
func TestOtherSeed(t *testing.T) {
	root := repoRoot(t)
	for _, w := range workloads {
		in := input{seed: 7, size: reduced, root: root}
		if _, err := w.run(w, in, nil); err != nil {
			t.Fatalf("%s seed 7: %v", w.name, err)
		}
		if _, ok := pinnedDigest[w.name]; !ok {
			continue
		}
		def := input{seed: defaultSeed, size: reduced, root: root}
		if singleProcessDigest(t, w, in) == singleProcessDigest(t, w, def) {
			t.Errorf("%s: seeds %d and 7 gave the same report", w.name, defaultSeed)
		}
	}
}

// TestPinnedDigests recomputes each pinned digest from a single-process
// campaign.Run of the workload's configuration at defaultSeed and
// fullSize.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size campaigns")
	}
	in := input{seed: defaultSeed, size: fullSize, root: repoRoot(t)}
	for name, want := range pinnedDigest {
		if got := singleProcessDigest(t, workloadByName(name), in); got != want {
			t.Errorf("%s: single-process digest %s, pinned %s", name, got, want)
		}
	}
}

func singleProcessDigest(t *testing.T, w *workload, in input) string {
	t.Helper()
	cfg, err := w.config(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
