package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/obs"
	"flame/internal/stats"
)

// Stratified sampler: instead of drawing every trial's arm cycle
// uniformly from the whole window, the site space is enumerated once
// per benchmark into (kernel, section, opcode-class) strata — split
// further by static liveness class under Config.StrataKey "liveness" —
// with exact site counts (core.BuildStrataKeyed), and trials are drawn
// uniformly WITHIN
// strata in rounds — a uniform pilot round first, then Neyman
// (variance-proportional) reallocation by the per-stratum outcome
// variance observed so far. Between rounds the post-stratified SDC and
// DUE rate CIs are checked against Config.CITarget, stopping the
// benchmark as soon as both are tight enough.
//
// Two properties keep accelerated campaigns honest:
//
//   - Determinism: each stratum owns a seed stream derived from the
//     campaign seed tree (benchSeed ^ "stratum:<key>"), trial i of a
//     stratum is the same trial at any -parallel, rounds are barriers,
//     and results fold in dispatch order — the report is byte-identical
//     regardless of worker count.
//   - Auditability: Audit runs the same budget on the uniform exact
//     grid and checks the stratified estimates fall inside the grid's
//     Wilson CIs (the estimators agree on what they estimate: rates
//     conditional on injection, since the no-injection tail is excluded
//     analytically and uniform rates divide by Injected).

// sjob is one stratified trial handed to a worker.
type sjob struct {
	spec    *core.KernelSpec
	g       *core.Golden
	px      *core.PruneIndex
	ts      core.TrialSpec
	bench   string
	trial   int // per-benchmark global trial index, dispatch order
	stratum string
	slot    *core.TrialResult
	ran     *bool
	wg      *sync.WaitGroup
}

// stratumState is one stratum's sampling progress within a benchmark.
type stratumState struct {
	st    *flame.SiteStratum
	seed  uint64        // root of the stratum's trial seed stream
	drawn int           // trials drawn so far (next seed index)
	rep   StratumReport // outcome tallies
}

// stratumSeed derives a stratum's seed-stream root from the campaign
// seed tree. The "stratum:" tag keeps the stream disjoint from the
// uniform grid's per-trial streams for the same benchmark.
func stratumSeed(campaignSeed uint64, bench, key string) uint64 {
	return splitmix64(benchSeed(campaignSeed, bench) ^ fnv64("stratum:"+key))
}

// stratumTrialSpec derives trial i of a stratum: a uniform site draw
// within the stratum mapped to its exact arm cycle, plus the injector
// seed. Depends only on (campaign seed, benchmark, stratum key, i), so
// the trial is the same no matter which worker runs it.
func (cfg *Config) stratumTrialSpec(g *core.Golden, ss *stratumState, i int) core.TrialSpec {
	rng := rand.New(rand.NewSource(trialSeed(ss.seed, i)))
	site := rng.Int63n(ss.st.Sites)
	return core.TrialSpec{
		Arms:      []int64{ss.st.ArmAt(site)},
		Model:     cfg.Model,
		Seed:      rng.Int63(),
		MaxCycles: g.HangBudget(cfg.HangBudgetMult),
		Timeout:   cfg.TrialTimeout,
	}
}

// RunStratified executes the stratified-sampling campaign. Config.Trials
// is the per-benchmark budget; benchmarks stop early once both rate CIs
// reach Config.CITarget (when positive). Single-strike only.
func RunStratified(cfg Config) (*Report, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("campaign: no workloads")
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("campaign: trials must be positive")
	}
	if cfg.StrikesPerTrial > 1 {
		return nil, fmt.Errorf("campaign: stratified sampling is single-strike (strikes=%d)", cfg.StrikesPerTrial)
	}
	if cfg.Skip != nil {
		return nil, fmt.Errorf("campaign: stratified sampling does not support trial skipping (-resume)")
	}
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}

	var str *streamer
	if cfg.Events != nil {
		str = newStreamer(cfg.Events, len(cfg.Specs)*cfg.Trials)
	}

	strataKey, err := core.ParseStrataKey(cfg.StrataKey)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	goldens := make([]*core.Golden, len(cfg.Specs))
	strata := make([]*flame.StrataMap, len(cfg.Specs))
	for i, spec := range cfg.Specs {
		g, err := core.GoldenRun(cfg.Arch, spec, cfg.Opt)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", spec.Name, err)
		}
		goldens[i] = g
		if strata[i], err = core.BuildStrataKeyed(cfg.Arch, spec, g, cfg.Model, strataKey); err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", spec.Name, err)
		}
	}
	if str != nil {
		str.campaignStart(&cfg, parallel, goldens[0].Comp.Opt.WCDL)
		for i, spec := range cfg.Specs {
			str.golden(spec.Name, goldens[i].Window)
		}
		for i, spec := range cfg.Specs {
			m := strata[i]
			info := make([]stratumInfo, len(m.Strata))
			for j := range m.Strata {
				info[j] = stratumInfo{Key: m.Strata[j].Key(), Sites: m.Strata[j].Sites}
			}
			str.strata(spec.Name, m.Span, m.NoInjectionSites, info)
		}
	}

	pruneIdx := make([]*core.PruneIndex, len(cfg.Specs))
	pruneOff := make([]string, len(cfg.Specs))
	if cfg.Prune {
		for i, spec := range cfg.Specs {
			pruneIdx[i] = core.BuildPruneIndex(cfg.Arch, spec, goldens[i], 0)
			if reason := pruneIdx[i].Disabled(); reason != "" {
				pruneOff[i] = reason
				if str != nil {
					str.pruneDisabled(spec.Name, reason)
				}
			}
		}
	}

	jobs := make(chan sjob, parallel)
	var wwg sync.WaitGroup
	engines := make([]*core.Engine, parallel)
	for w := 0; w < parallel; w++ {
		wwg.Add(1)
		eng := core.NewEngine(cfg.Arch)
		eng.SetNoCOW(cfg.NoCOW)
		engines[w] = eng
		// One tracer per worker, reset per trial (see Run).
		var obsv core.TrialObserver
		if cfg.Trace {
			obsv = obs.NewTracer()
		}
		go func() {
			defer wwg.Done()
			for j := range jobs {
				if str != nil {
					str.trialStart(j.bench, j.trial)
				}
				j.ts.Observer = obsv
				res, pruned := j.px.PruneTrial(j.g, j.ts)
				if pruned {
					res.Pruned = true
				} else {
					res = eng.RunTrial(j.spec, j.g, j.ts)
				}
				res.Stratum = j.stratum
				*j.slot = *res
				*j.ran = true
				if str != nil {
					str.trial(j.bench, j.trial, res)
				}
				j.wg.Done()
			}
		}()
	}

	stopped := func() bool {
		select {
		case <-cfg.Stop:
			return true
		default:
			return false
		}
	}

	rep := &Report{
		Arch:            cfg.Arch.Name,
		Scheme:          cfg.Opt.Scheme.String(),
		Model:           cfg.Model.String(),
		WCDL:            goldens[0].Comp.Opt.WCDL,
		Seed:            cfg.Seed,
		Trials:          cfg.Trials,
		StrikesPerTrial: 1,
		Stratified:      true,
		CITarget:        cfg.CITarget,
	}
	wasStopped := false
	for b, spec := range cfg.Specs {
		if stopped() {
			wasStopped = true
			break
		}
		g, m := goldens[b], strata[b]
		br := BenchReport{Benchmark: spec.Name, WindowCycles: g.Window, PruneDisabled: pruneOff[b]}
		states := make([]*stratumState, len(m.Strata))
		for h := range m.Strata {
			st := &m.Strata[h]
			states[h] = &stratumState{
				st:   st,
				seed: stratumSeed(cfg.Seed, spec.Name, st.Key()),
				rep:  StratumReport{Key: st.Key(), Sites: st.Sites},
			}
		}

		used, rounds := 0, 0
		reason := "budget"
		if len(states) == 0 {
			reason = "no_sites"
		}
		for len(states) > 0 {
			if used >= cfg.Trials {
				reason = "budget"
				break
			}
			if stopped() {
				reason = "stopped"
				wasStopped = true
				break
			}
			alloc := cfg.roundAlloc(states, rounds, cfg.Trials-used)
			total := 0
			for _, a := range alloc {
				total += a
			}
			if total == 0 {
				reason = "budget"
				break
			}

			// Dispatch the round: trial indices are assigned in (stratum,
			// within-stratum) order, so the grid is a pure function of the
			// allocation history regardless of worker interleaving.
			results := make([]core.TrialResult, total)
			ran := make([]bool, total)
			slotStratum := make([]int, total)
			var rwg sync.WaitGroup
			round := make([]sjob, 0, total)
			for h, ss := range states {
				for i := 0; i < alloc[h]; i++ {
					slot := len(round)
					round = append(round, sjob{
						spec: spec, g: g, px: pruneIdx[b],
						ts:      cfg.stratumTrialSpec(g, ss, ss.drawn+i),
						bench:   spec.Name,
						trial:   used + slot,
						stratum: ss.st.Key(),
						slot:    &results[slot],
						ran:     &ran[slot],
						wg:      &rwg,
					})
					slotStratum[slot] = h
				}
			}
			// Dispatch in ascending arm order so each worker's golden
			// cursor moves forward (see Run); slots fix the fold order.
			sort.SliceStable(round, func(i, k int) bool { return round[i].ts.Arms[0] < round[k].ts.Arms[0] })
		dispatch:
			for _, j := range round {
				rwg.Add(1)
				select {
				case <-cfg.Stop:
					rwg.Done()
					wasStopped = true
					break dispatch
				case jobs <- j:
				}
			}
			rwg.Wait()
			for h, ss := range states {
				ss.drawn += alloc[h]
			}
			// Fold in slot order — deterministic at any parallelism.
			folded := 0
			for s := 0; s < total; s++ {
				if !ran[s] {
					continue
				}
				br.fold(&results[s])
				states[slotStratum[s]].rep.foldOutcome(results[s].Outcome)
				folded++
			}
			used += folded
			rounds++
			if wasStopped {
				reason = "stopped"
				break
			}
			if cfg.CITarget > 0 && samplingConverged(states, cfg.CITarget) {
				reason = "ci_target"
				break
			}
		}

		counts := make([]StratumReport, len(states))
		for h, ss := range states {
			counts[h] = ss.rep
		}
		br.Sampling = buildSampling(m.Span, m.NoInjectionSites,
			cfg.Trials, used, rounds, reason, counts)
		br.finish()
		rep.Benchmarks = append(rep.Benchmarks, br)
		rep.Fleet.merge(&br)
		if str != nil {
			str.benchDone(spec.Name, used, rounds, reason)
		}
		if wasStopped {
			break
		}
	}
	close(jobs)
	wwg.Wait()
	var rs core.RestoreStats
	for _, eng := range engines {
		rs.Add(eng.Stats())
	}
	if cfg.RestoreStats != nil {
		cfg.RestoreStats.Add(rs)
	}

	rep.Fleet.Benchmark = "fleet"
	rep.Fleet.finish()
	if str != nil {
		str.campaignDone(rep, rs)
		if err := str.err(); err != nil {
			return nil, fmt.Errorf("campaign: event stream: %w", err)
		}
	}
	if wasStopped {
		return rep, ErrStopped
	}
	return rep, nil
}

// roundAlloc decides the next round's per-stratum trial counts: the
// pilot round (round 0) spreads trials uniformly so every stratum gets
// variance evidence; later rounds are Neyman-allocated by the observed
// per-stratum binomial spread (the larger of the SDC and DUE sides,
// Jeffreys-smoothed so an all-masked stratum keeps a small share rather
// than being starved forever on possibly-noisy evidence).
func (cfg *Config) roundAlloc(states []*stratumState, round, remaining int) []int {
	H := len(states)
	alloc := make([]int, H)
	if remaining <= 0 {
		return alloc
	}
	if round == 0 {
		per := cfg.Pilot
		if per <= 0 {
			per = 8
		}
		if per < 2 {
			per = 2
		}
		total := per * H
		if total > remaining {
			total = remaining
		}
		base, rem := total/H, total%H
		for h := range alloc {
			alloc[h] = base
			if h < rem {
				alloc[h]++
			}
		}
		return alloc
	}
	size := 2 * H
	if q := cfg.Trials / 4; q > size {
		size = q
	}
	if size > remaining {
		size = remaining
	}
	weights := make([]int64, H)
	sigma := make([]float64, H)
	for h, ss := range states {
		weights[h] = ss.st.Sites
		n := float64(ss.rep.Trials - ss.rep.Internal)
		pS := (float64(ss.rep.SDC) + 0.5) / (n + 1)
		pD := (float64(ss.rep.DUE) + 0.5) / (n + 1)
		sigma[h] = math.Max(math.Sqrt(pS*(1-pS)), math.Sqrt(pD*(1-pD)))
	}
	return stats.NeymanAlloc(weights, sigma, size)
}

// samplingConverged reports whether both post-stratified rate CIs are
// within the target half-width.
func samplingConverged(states []*stratumState, target float64) bool {
	sdc := make([]stats.StratumCount, len(states))
	due := make([]stats.StratumCount, len(states))
	for h, ss := range states {
		n := ss.rep.Trials - ss.rep.Internal
		sdc[h] = stats.StratumCount{Weight: ss.st.Sites, N: n, K: ss.rep.SDC}
		due[h] = stats.StratumCount{Weight: ss.st.Sites, N: n, K: ss.rep.DUE}
	}
	return stats.StratifiedWilson95(sdc).HalfWidth() <= target &&
		stats.StratifiedWilson95(due).HalfWidth() <= target
}

// AuditBench is one benchmark's stratified-vs-exact-grid consistency
// check: the stratified point estimates must fall inside the uniform
// grid's Wilson 95% CIs computed from the same per-benchmark budget.
type AuditBench struct {
	Benchmark string `json:"benchmark"`
	// StratSDC / StratDUE are the stratified point estimates.
	StratSDC float64 `json:"strat_sdc"`
	StratDUE float64 `json:"strat_due"`
	// Uniform CI bounds from the exact grid (rates over Injected).
	UniformSDCLo float64 `json:"uniform_sdc_lo"`
	UniformSDCHi float64 `json:"uniform_sdc_hi"`
	UniformDUELo float64 `json:"uniform_due_lo"`
	UniformDUEHi float64 `json:"uniform_due_hi"`
	// UniformTrials is the grid's injected-trial denominator.
	UniformTrials int  `json:"uniform_trials"`
	Pass          bool `json:"pass"`
}

// AuditReport is the full -audit consistency check.
type AuditReport struct {
	Benchmarks []AuditBench `json:"benchmarks"`
	Pass       bool         `json:"pass"`
}

// String renders one line per benchmark.
func (a *AuditReport) String() string {
	out := ""
	for _, b := range a.Benchmarks {
		verdict := "ok"
		if !b.Pass {
			verdict = "FAIL"
		}
		out += fmt.Sprintf("audit %s: %s  sdc %.4f in [%.4f, %.4f]  due %.4f in [%.4f, %.4f]  (grid: %d injected)\n",
			b.Benchmark, verdict, b.StratSDC, b.UniformSDCLo, b.UniformSDCHi,
			b.StratDUE, b.UniformDUELo, b.UniformDUEHi, b.UniformTrials)
	}
	return out
}

// Audit runs the same budget on the uniform exact grid and checks each
// stratified estimate falls inside the grid's Wilson 95% CI. strat must
// be a report produced by RunStratified with the same Config.
func Audit(cfg Config, strat *Report) (*AuditReport, error) {
	ucfg := cfg
	ucfg.Stratify = false
	ucfg.CITarget = 0
	ucfg.Events = nil
	ucfg.Stop = nil
	ucfg.Skip = nil
	ucfg.RestoreStats = nil
	urep, err := Run(ucfg)
	if err != nil {
		return nil, fmt.Errorf("audit: uniform grid: %w", err)
	}
	uniform := map[string]*BenchReport{}
	for i := range urep.Benchmarks {
		uniform[urep.Benchmarks[i].Benchmark] = &urep.Benchmarks[i]
	}
	out := &AuditReport{Pass: true}
	for i := range strat.Benchmarks {
		sb := &strat.Benchmarks[i]
		if sb.Sampling == nil {
			continue
		}
		ub, ok := uniform[sb.Benchmark]
		if !ok {
			return nil, fmt.Errorf("audit: benchmark %s missing from uniform grid", sb.Benchmark)
		}
		ab := AuditBench{
			Benchmark:     sb.Benchmark,
			StratSDC:      sb.Sampling.SDCRate.Rate,
			StratDUE:      sb.Sampling.DUERate.Rate,
			UniformTrials: ub.Injected,
		}
		ab.UniformSDCLo, ab.UniformSDCHi = stats.Wilson95(ub.SDC, ub.Injected)
		ab.UniformDUELo, ab.UniformDUEHi = stats.Wilson95(ub.DUE, ub.Injected)
		// Wilson's lower bound at k=0 is a ~1e-17 float residue of an
		// exact algebraic zero; pin it so a stratified estimate of exactly
		// zero is inside the interval it mathematically belongs to.
		if ub.SDC == 0 {
			ab.UniformSDCLo = 0
		}
		if ub.DUE == 0 {
			ab.UniformDUELo = 0
		}
		ab.Pass = ab.StratSDC >= ab.UniformSDCLo && ab.StratSDC <= ab.UniformSDCHi &&
			ab.StratDUE >= ab.UniformDUELo && ab.StratDUE <= ab.UniformDUEHi
		out.Pass = out.Pass && ab.Pass
		out.Benchmarks = append(out.Benchmarks, ab)
	}
	return out, nil
}
