package main

import (
	"fmt"
	"time"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/gpu"
)

// layerMetrics are the per-layer metrics a traced run prints, in order,
// with their units. Every workload prints all of them; a layer the
// workload does not reach reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"gpu.sim_cycles", "count"},
	{"gpu.sim_cycles_per_s", "1/s"},
	{"core.golden_s", "s"},
	{"core.prune_index_s", "s"},
	{"core.strata_s", "s"},
	{"core.trials", "count"},
	{"core.trial_ms_p50", "ms"},
	{"core.trial_ms_p99", "ms"},
	{"core.restored_pages_per_trial", "count"},
	{"core.dirty_pages_per_trial", "count"},
	{"core.diff_pages_per_trial", "count"},
	{"core.prune_us_p50", "us"},
	{"core.pruned_frac", "ratio"},
	{"campaign.busy_frac", "ratio"},
	{"campaign.trial_phase_s", "s"},
	{"campaign.tail_s", "s"},
	{"campaign.rounds", "count"},
	{"dist.lease_ms_p50", "ms"},
	{"dist.events_ms_p50", "ms"},
	{"dist.events_ms_p99", "ms"},
	{"dist.complete_ms_p50", "ms"},
	{"dist.requests_per_trial", "count"},
	{"dist.req_bytes_per_trial", "B"},
	{"dist.worker_http_frac", "ratio"},
	{"dist.worker_s", "s"},
	{"dist.first_lease_s", "s"},
	{"harness.run_ms_p50", "ms"},
	{"harness.run_ms_max", "ms"},
	{"harness.sim_frac", "ratio"},
	{"harness.figure_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"fail_frac", "ratio"},
}

// tracer collects per-layer samples over a traced run's repetitions.
// Durations are pooled across repetitions; per-repetition ratios are
// reported as medians; counts that the seed fixes come from the last
// repetition and must repeat exactly.
type tracer struct {
	simCycles    int64
	simSeconds   float64 // time spent in simulated trials or runs
	simCyclesRun int64   // cycles of those trials or runs
	cyclesSeen   []int64

	trials, pruned int
	trialMS        []float64
	restore        core.RestoreStats
	restoreTrials  float64

	busy, phase, tail []float64
	rounds            int

	goldenS, pruneIndexS, strataS float64
	pruneUS                       []float64

	leaseMS, eventsMS, completeMS  []float64
	requests, reqBytes, distTrials int64
	httpS, workerS                 float64
	fleetReps                      int
	firstLease                     []float64

	runMS   []float64
	figureS []float64
	simFrac []float64
}

// runTraced alternates untraced and traced repetitions for seconds, as
// runPlain paces them, then probes a campaign's set-up layers once, and
// reports the per-layer metrics with the tracing overhead.
func runTraced(w *workload, in input, seconds float64) (*result, error) {
	tr := &tracer{}
	var reps []rep
	var plain, traced []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for last := time.Duration(0); len(traced) == 0 || time.Now().Add(last).Before(deadline); {
		t0 := time.Now()
		r, err := runRep(w, in, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r.wall)
		reps = append(reps, r)
		if r, err = runRep(w, in, tr); err != nil {
			return nil, err
		}
		traced = append(traced, r.wall)
		reps = append(reps, r)
		last = time.Since(t0)
	}
	if w.config != nil {
		cfg, err := w.config(in)
		if err != nil {
			return nil, err
		}
		if err := probeSetup(&cfg, tr); err != nil {
			return nil, err
		}
	}
	for i := 1; i < len(tr.cyclesSeen); i++ {
		if tr.cyclesSeen[i] != tr.cyclesSeen[0] {
			return nil, mismatchf("simulated cycles changed between repetitions: %v", tr.cyclesSeen)
		}
	}
	res := newResult(reps)
	v := tr.values()
	v["trace.wall_s"] = median(traced)
	v["trace.untraced_wall_s"] = median(plain)
	v["trace.overhead_s"] = median(traced) - median(plain)
	v["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	for _, m := range layerMetrics {
		res.add(m.name, m.unit, v[m.name])
	}
	return res, nil
}

// values computes every per-layer metric the samples support.
func (t *tracer) values() map[string]float64 {
	v := map[string]float64{
		"gpu.sim_cycles":         float64(t.simCycles),
		"core.golden_s":          t.goldenS,
		"core.prune_index_s":     t.pruneIndexS,
		"core.strata_s":          t.strataS,
		"core.trials":            float64(t.trials),
		"core.trial_ms_p50":      quantile(t.trialMS, 0.5),
		"core.trial_ms_p99":      quantile(t.trialMS, 0.99),
		"core.prune_us_p50":      quantile(t.pruneUS, 0.5),
		"campaign.busy_frac":     median(t.busy),
		"campaign.trial_phase_s": median(t.phase),
		"campaign.tail_s":        median(t.tail),
		"campaign.rounds":        float64(t.rounds),
		"dist.lease_ms_p50":      quantile(t.leaseMS, 0.5),
		"dist.events_ms_p50":     quantile(t.eventsMS, 0.5),
		"dist.events_ms_p99":     quantile(t.eventsMS, 0.99),
		"dist.complete_ms_p50":   quantile(t.completeMS, 0.5),
		"dist.first_lease_s":     median(t.firstLease),
		"harness.run_ms_p50":     quantile(t.runMS, 0.5),
		"harness.run_ms_max":     quantile(t.runMS, 1),
		"harness.sim_frac":       median(t.simFrac),
		"harness.figure_s":       median(t.figureS),
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			v[name] = num / den
		}
	}
	ratio("gpu.sim_cycles_per_s", float64(t.simCyclesRun), t.simSeconds)
	ratio("core.pruned_frac", float64(t.pruned), float64(t.trials))
	ratio("core.restored_pages_per_trial", float64(t.restore.RestoredPages), t.restoreTrials)
	ratio("core.dirty_pages_per_trial", float64(t.restore.DirtyPages), t.restoreTrials)
	ratio("core.diff_pages_per_trial", float64(t.restore.DiffPages), t.restoreTrials)
	ratio("dist.requests_per_trial", float64(t.requests), float64(t.distTrials))
	ratio("dist.req_bytes_per_trial", float64(t.reqBytes), float64(t.distTrials))
	ratio("dist.worker_s", t.workerS, float64(t.fleetReps))
	ratio("dist.worker_http_frac", t.httpS, t.workerS)
	return v
}

// addCampaign folds one traced in-process campaign: per-trial times
// from the event stream, worker occupancy over the trial phase (first
// trial_start until Run returned) and the engines' restore counters.
func (t *tracer) addCampaign(ev *eventClock, parallel int, returned time.Time, rs core.RestoreStats) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	var cycles int64
	var busy float64
	t.trials, t.pruned = len(ev.trials), 0
	for _, s := range ev.trials {
		cycles += s.cycles
		busy += s.ms / 1e3
		if s.pruned {
			t.pruned++
			continue
		}
		t.trialMS = append(t.trialMS, s.ms)
		t.simCyclesRun += s.cycles
		t.simSeconds += s.ms / 1e3
	}
	t.simCycles = cycles
	t.cyclesSeen = append(t.cyclesSeen, cycles)
	phase := returned.Sub(ev.first).Seconds()
	t.phase = append(t.phase, phase)
	t.busy = append(t.busy, busy/(float64(parallel)*phase))
	t.tail = append(t.tail, returned.Sub(ev.last).Seconds())
	t.rounds = ev.rounds
	t.restore.Add(rs)
	t.restoreTrials += float64(rs.Trials)
}

// addFleet folds one traced fleet: coordinator request times by path,
// request counts and bytes, the workers' time in HTTP, trial times
// from the workers' BeforeTrial hooks and their restore counters.
func (t *tracer) addFleet(h *handlerMeter, rt *roundTripMeter, workers []*workerProbe, trials int, firstLease float64) error {
	h.mu.Lock()
	t.leaseMS = append(t.leaseMS, h.ms["/v1/lease"]...)
	t.eventsMS = append(t.eventsMS, h.ms["/v1/events"]...)
	t.completeMS = append(t.completeMS, h.ms["/v1/complete"]...)
	for _, d := range h.ms {
		t.requests += int64(len(d))
	}
	t.reqBytes += h.reqBytes
	cycles, lines, pruned := h.cycles, h.lines, h.pruned
	h.mu.Unlock()
	if lines != trials {
		return mismatchf("%d trial lines posted for %d trials", lines, trials)
	}
	t.trials, t.pruned = trials, pruned
	t.distTrials += int64(trials)
	t.fleetReps++
	t.simCycles = cycles
	t.cyclesSeen = append(t.cyclesSeen, cycles)
	t.firstLease = append(t.firstLease, firstLease)
	t.httpS += float64(rt.nanos.Load()) / 1e9
	var trialS float64
	var gaps int
	for _, wp := range workers {
		t.workerS += wp.wall
		wp.mu.Lock()
		for _, ms := range wp.trialMS {
			trialS += ms / 1e3
		}
		t.trialMS = append(t.trialMS, wp.trialMS...)
		gaps += len(wp.trialMS)
		c, err := wp.counters, wp.scrapeErr
		wp.mu.Unlock()
		if c == nil && err == nil {
			err = fmt.Errorf("never polled after the campaign finished")
		}
		if err != nil {
			return fmt.Errorf("worker %s metrics: %w", wp.name, err)
		}
		t.restore.RestoredPages += int64(c["flame_worker_restored_pages_total"])
		t.restore.DirtyPages += int64(c["flame_worker_dirty_pages_total"])
		t.restore.DiffPages += int64(c["flame_worker_diff_pages_total"])
		t.restoreTrials += c["flame_worker_trials_total"] - c["flame_worker_pruned_total"]
	}
	// The last trial of each shard has no gap to time it by: scale the
	// cycles to the trials that were timed.
	t.simCyclesRun += cycles * int64(gaps) / int64(trials)
	t.simSeconds += trialS
	return nil
}

// addSweep times core.Run for every (benchmark, scheme) pair the sweep
// simulates, baseline included, in a replica pass made after the
// Figure13_14 call and in its order, and compares the pass with the
// call's time. The harness itself is not instrumented, so per-run
// times come from the replica.
func (t *tracer) addSweep(arch gpu.Config, benches []*bench.Benchmark, figureS float64) error {
	var cycles int64
	var runS float64
	timeRun := func(b *bench.Benchmark, opt core.Options) error {
		t0 := time.Now()
		res, err := core.Run(arch, b.Spec(), opt)
		d := time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("%s/%s: %w", b.Name, opt.Scheme, err)
		}
		t.runMS = append(t.runMS, d*1e3)
		cycles += res.Stats.Cycles
		runS += d
		return nil
	}
	// Figure13_14 runs scheme by scheme, each benchmark's baseline
	// just before its first scheme run.
	for i, s := range sweepSchemes {
		opt := core.Options{Scheme: s, WCDL: 20, ExtendRegions: s == core.SensorRenaming}
		for _, b := range benches {
			if i == 0 {
				if err := timeRun(b, core.Options{Scheme: core.Baseline}); err != nil {
					return err
				}
			}
			if err := timeRun(b, opt); err != nil {
				return err
			}
		}
	}
	t.trials = len(benches) * (len(sweepSchemes) + 1)
	t.simCycles = cycles
	t.cyclesSeen = append(t.cyclesSeen, cycles)
	t.simCyclesRun += cycles
	t.simSeconds += runS
	t.figureS = append(t.figureS, figureS)
	// Replica time ÷ figure time: about 1 while the harness only
	// simulates, one run after another; below 1 when it spends time
	// outside simulation, above 1 when it overlaps runs.
	t.simFrac = append(t.simFrac, runS/figureS)
	return nil
}

// probeSetup times one pass of a campaign's set-up layers per
// benchmark — core.GoldenRun, core.BuildPruneIndex and, for stratified
// campaigns, core.BuildStrataKeyed — and PruneIndex.PruneTrial over the
// benchmark's uniform trial grid.
func probeSetup(cfg *campaign.Config, tr *tracer) error {
	key, err := core.ParseStrataKey(cfg.StrataKey)
	if err != nil {
		return err
	}
	for _, spec := range cfg.Specs {
		t0 := time.Now()
		g, err := core.GoldenRun(cfg.Arch, spec, cfg.Opt)
		if err != nil {
			return err
		}
		t1 := time.Now()
		px := core.BuildPruneIndex(cfg.Arch, spec, g, 0)
		t2 := time.Now()
		tr.goldenS += t1.Sub(t0).Seconds()
		tr.pruneIndexS += t2.Sub(t1).Seconds()
		if cfg.Stratify {
			if _, err := core.BuildStrataKeyed(cfg.Arch, spec, g, cfg.Model, key); err != nil {
				return err
			}
			tr.strataS += time.Since(t2).Seconds()
		}
		for i := 0; i < cfg.Trials; i++ {
			ts := cfg.TrialSpec(g, spec.Name, i)
			t0 := time.Now()
			px.PruneTrial(g, ts)
			tr.pruneUS = append(tr.pruneUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return nil
}
