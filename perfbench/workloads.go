package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// config builds the campaign the workload runs; nil on paper-sweep,
	// which runs none.
	config func(in input) (campaign.Config, error)
	// run performs one repetition; with a non-nil tracer it also
	// records per-layer samples.
	run func(w *workload, in input, tr *tracer) (rep, error)
}

var workloads = []*workload{
	{name: "campaign", config: campaignConfig, run: runInProcess},
	{name: "stratified-ci", config: stratConfig, run: runInProcess},
	{name: "fleet", config: fleetConfig, run: runFleet},
	{name: "paper-sweep", run: runSweep},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// input is what a workload derives its work from.
type input struct {
	seed uint64
	size size
	// root is the repository root (results_full.txt lives there).
	root string
}

// size fixes how much work one repetition does.
type size struct {
	campaignTrials int // per benchmark
	stratBudget    int // per-benchmark trial budget of the sampler
	fleetTrials    int // per benchmark
	fleetShard     int // trials per shard
	sweep          []string
}

// fullSize is what the benchmark measures; the report digests are
// pinned for it at defaultSeed.
var fullSize = size{
	campaignTrials: 24,
	stratBudget:    160,
	fleetTrials:    100,
	fleetShard:     10,
	sweep:          quickSubset,
}

// quickSubset is flamebench -quick's structurally diverse subset.
var quickSubset = []string{"Triad", "SGEMM", "LUD", "Histogram", "BS", "WT", "BFS", "Hotspot"}

// stratBenches mixes benchmarks whose stratified CI converges early
// with ones that spend the whole budget, and includes Histogram, where
// the pruner classifies a large share of trials.
var stratBenches = []string{"Histogram", "TPACF", "IS", "GUPS", "SQ", "AES", "Triad", "BS", "WT", "DWT", "Gaussian", "BFS", "CFD"}

// fleetBenches are cheap-trial benchmarks, so lease, JSONL and
// checkpoint cost per trial is a visible share of a fleet run.
var fleetBenches = []string{"IS", "CS", "Gaussian", "CFD", "Triad", "BS"}

// flameOpt is the full Flame design: sensors + renaming with region
// extension at the paper's 20-cycle WCDL.
func flameOpt() core.Options {
	return core.Options{Scheme: core.SensorRenaming, WCDL: 20, ExtendRegions: true}
}

func specsFor(names []string) ([]*core.KernelSpec, error) {
	specs := make([]*core.KernelSpec, len(names))
	for i, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			return nil, err
		}
		specs[i] = b.Spec()
	}
	return specs, nil
}

// errMismatch marks a failed correctness check, as opposed to a
// workload that could not run at all.
var errMismatch = errors.New("correctness check failed")

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

func campaignConfig(in input) (campaign.Config, error) {
	specs, err := specsFor(quickSubset)
	return campaign.Config{
		Arch: gpu.GTX480(), Opt: flameOpt(), Specs: specs,
		Trials: in.size.campaignTrials, Parallel: parallelism(), Seed: in.seed,
		Model: flame.DataSlice, Prune: true,
	}, err
}

func stratConfig(in input) (campaign.Config, error) {
	specs, err := specsFor(stratBenches)
	return campaign.Config{
		Arch: gpu.GTX480(), Opt: core.Options{Scheme: core.Baseline}, Specs: specs,
		Trials: in.size.stratBudget, Parallel: parallelism(), Seed: in.seed,
		Model: flame.DataSlice, Prune: true,
		Stratify: true, StrataKey: "liveness", CITarget: 0.05,
	}, err
}

// runInProcess runs the workload's campaign in this process, through
// campaign.RunStratified when it is stratified and campaign.Run
// otherwise, clocking set-up on the event stream, and checks its report.
func runInProcess(w *workload, in input, tr *tracer) (rep, error) {
	cfg, err := w.config(in)
	if err != nil {
		return rep{}, err
	}
	ev := &eventClock{traced: tr != nil}
	cfg.Events = ev
	var rs core.RestoreStats
	if tr != nil {
		cfg.RestoreStats = &rs
	}
	start := time.Now()
	var report *campaign.Report
	if cfg.Stratify {
		report, err = campaign.RunStratified(cfg)
	} else {
		report, err = campaign.Run(cfg)
	}
	returned := time.Now()
	if err != nil {
		return rep{}, err
	}
	r, err := checkReport(in, w.name, &cfg, report)
	if err != nil {
		return rep{}, err
	}
	r.wall = time.Since(start).Seconds()
	if ev.first.IsZero() {
		return rep{}, fmt.Errorf("no trial_start event")
	}
	r.setup = ev.first.Sub(start).Seconds()
	if tr != nil {
		tr.addCampaign(ev, cfg.Parallel, returned, rs)
	}
	return r, nil
}

// checkReport applies the correctness gate to an in-process or
// distributed report and fills the rep's counts.
func checkReport(in input, name string, cfg *campaign.Config, report *campaign.Report) (rep, error) {
	var r rep
	if len(report.Benchmarks) != len(cfg.Specs) {
		return r, mismatchf("%d benchmark reports for %d benchmarks", len(report.Benchmarks), len(cfg.Specs))
	}
	for i := range report.Benchmarks {
		b := &report.Benchmarks[i]
		want := cfg.Trials
		if cfg.Stratify {
			s := b.Sampling
			if s == nil {
				return r, mismatchf("%s: no sampling breakdown", b.Benchmark)
			}
			if s.StopReason != "ci_target" && s.StopReason != "budget" {
				return r, mismatchf("%s: stop reason %q", b.Benchmark, s.StopReason)
			}
			want = s.TrialsUsed
			if want > cfg.Trials {
				return r, mismatchf("%s: %d trials over the %d budget", b.Benchmark, want, cfg.Trials)
			}
		}
		if b.Trials != want {
			return r, mismatchf("%s: %d trials in the report, %d expected", b.Benchmark, b.Trials, want)
		}
		if b.Internal != 0 {
			return r, mismatchf("%s: %d internal trials: %s", b.Benchmark, b.Internal, b.ExampleInternal)
		}
		if cfg.Opt.Scheme == core.SensorRenaming && b.SDC+b.DUE+b.Hang != 0 {
			return r, mismatchf("%s: Flame under the data-slice model had %d SDC, %d DUE, %d hang",
				b.Benchmark, b.SDC, b.DUE, b.Hang)
		}
		r.trials += b.Trials
	}
	r.attempted = r.trials
	if in.seed == defaultSeed && reflect.DeepEqual(in.size, fullSize) {
		data, err := report.JSON()
		if err != nil {
			return r, err
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != pinnedDigest[name] {
			return r, mismatchf("report digest %s, pinned %s", got, pinnedDigest[name])
		}
	}
	return r, nil
}

// pinnedDigest is the SHA-256 of each campaign workload's report JSON at
// defaultSeed and fullSize, taken from a single-process campaign.Run.
// The fleet's entry is the single-process run of the fleet's campaign,
// so the check also asserts distributed ≡ single-process.
var pinnedDigest = map[string]string{
	"campaign":      "102adf640245e224ca0b59c310e628884863860da53151dbc62d5005e8a93939",
	"stratified-ci": "b8926ef4a4e4f799bc5ba5774c970bbeb4afa0a84b34a759de9fc6fc41e5a8f5",
	"fleet":         "243965f1f08088a2d965107abb9acf70e1d0ca8d1caa4e39a9c33159b63fef98",
}

// eventClock is the campaign's event writer. Untraced, it only notes
// when the first trial_start arrives (the end of set-up). Traced, it
// also timestamps every trial_start and trial line.
type eventClock struct {
	traced bool

	mu     sync.Mutex
	first  time.Time
	last   time.Time // latest trial_start
	starts map[trialKey]time.Time
	trials []trialSample
	rounds int
}

type trialKey struct {
	bench string
	trial int
}

type trialSample struct {
	ms     float64
	cycles int64
	pruned bool
}

var trialStartTag = []byte(`"event":"trial_start"`)

func (e *eventClock) Write(p []byte) (int, error) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.traced {
		if e.first.IsZero() && bytes.Contains(p, trialStartTag) {
			e.first = now
		}
		return len(p), nil
	}
	var ev struct {
		Event     string `json:"event"`
		Benchmark string `json:"benchmark"`
		Trial     int    `json:"trial"`
		Cycles    int64  `json:"cycles"`
		Pruned    any    `json:"pruned"` // a flag on trials, a count on campaign_done
		Rounds    int    `json:"rounds"`
	}
	if err := json.Unmarshal(p, &ev); err != nil {
		return 0, err
	}
	k := trialKey{ev.Benchmark, ev.Trial}
	switch ev.Event {
	case "trial_start":
		if e.first.IsZero() {
			e.first = now
			e.starts = map[trialKey]time.Time{}
		}
		e.last = now
		e.starts[k] = now
	case "trial":
		t0, ok := e.starts[k]
		if !ok {
			return 0, fmt.Errorf("trial %v without trial_start", k)
		}
		e.trials = append(e.trials, trialSample{
			ms: float64(now.Sub(t0).Nanoseconds()) / 1e6, cycles: ev.Cycles, pruned: ev.Pruned == true,
		})
	case "bench_done":
		e.rounds += ev.Rounds
	}
	return len(p), nil
}
