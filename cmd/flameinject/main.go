// Command flameinject runs a statistical fault-injection campaign:
// thousands of classified injection trials across a benchmark suite,
// executed on a pool of workers, reported as per-benchmark and
// fleet-wide coverage rates with Wilson 95% confidence intervals. The
// report is bit-identical for a given seed regardless of -parallel.
//
// Usage:
//
//	flameinject -trials 1000 -parallel 8
//	flameinject -bench SGEMM,LUD -scheme flame -model full -json report.json
//	flameinject -suite quick -trials 125 -strikes 2
//	flameinject -trials 200 -events campaign.jsonl
//	flameinject -trials 200 -events campaign.jsonl -resume   # continue an interrupted run
//	flameinject -serve :8077 -state dir                      # distributed: coordinator
//	flameinject -join http://host:8077                       # distributed: worker
//
// SIGINT/SIGTERM stops gracefully: in-flight trials finish, the event
// stream is flushed, and the partial report is printed; with -events
// the run is resumable via -resume. Exit codes: 0 clean; 1 error; 2
// uncovered outcomes under the paper's fault model; 3 interrupted
// (partial, resumable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/dist"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/prof"
	"flame/internal/stats"
)

// quickSuite is a small structurally-diverse subset for fast campaigns:
// regular streaming, blocked reuse with barriers, atomics, divergence,
// extended-section and multi-kernel workloads.
var quickSuite = []string{
	"Triad", "SGEMM", "Histogram", "BFS",
	"LUD", "NW", "PF", "SRAD",
}

func main() {
	benchList := flag.String("bench", "", "comma-separated benchmark names (default: -suite)")
	suite := flag.String("suite", "quick", "benchmark suite: quick (8 diverse workloads) or all")
	schemeFlag := flag.String("scheme", "flame", "resilience scheme (see -h of flamecc)")
	archName := flag.String("arch", "GTX480", "GPU architecture: GTX480, TITANX, GV100, RTX2060")
	wcdl := flag.Int("wcdl", 20, "sensor WCDL (cycles)")
	extend := flag.Bool("extend", true, "enable region extension")
	trials := flag.Int("trials", 100, "injection trials per benchmark")
	parallel := flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS); does not affect the report")
	seed := flag.Uint64("seed", 1, "campaign seed (report is a pure function of config+seed)")
	modelFlag := flag.String("model", "data", "fault model: data (paper's data slice) or full (full site incl. address/control)")
	strikes := flag.Int("strikes", 1, "strikes armed per trial")
	budget := flag.Int64("budget", 8, "hang watchdog: cycle budget as multiple of the fault-free window")
	trialTimeout := flag.Duration("trial-timeout", 0, "wall-clock watchdog per trial, e.g. 30s (0 = off); timeouts classify as hangs")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file (- for stdout)")
	events := flag.String("events", "", "stream JSONL progress events to this file (- for stderr); replayable with campaign.Replay")
	resume := flag.Bool("resume", false, "with -events FILE: skip trials already classified in FILE, append new ones, report the union")
	serve := flag.String("serve", "", "run as distributed coordinator on this address (see flameserve)")
	state := flag.String("state", "flameinject-state", "with -serve: state directory for checkpoint + shard streams")
	dashboard := flag.Bool("dashboard", false, "with -serve: serve the live HTML dashboard at GET /dashboard")
	join := flag.String("join", "", "run as distributed worker against this coordinator URL (see flameworker)")
	metricsAddr := flag.String("metrics-addr", "", "with -join: serve this worker's Prometheus /metrics on this address (e.g. :9090)")
	fingerprint := flag.Bool("fingerprint", false, "trace strike propagation per trial: cycle depth to first corrupted store, detection latency, SDC corruption fingerprints (outcomes and exit codes unchanged)")
	stratify := flag.Bool("stratify", false, "stratified importance sampling over (kernel, section, opcode-class) strata instead of the uniform site grid")
	ciTarget := flag.Float64("ci-target", 0, "adaptive early stop: halt a benchmark once both its SDC and DUE Wilson 95% half-widths reach this target (0 = off; needs -stratify or -serve)")
	pilot := flag.Int("pilot", 0, "with -stratify: uniform pilot trials per stratum in round 0 (0 = default)")
	strataKey := flag.String("strata-key", "", "with -stratify or -list-strata: stratification key, section-class (default) or liveness (adds the static dead/short/long/store site-class dimension)")
	audit := flag.Bool("audit", false, "with -stratify: rerun the uniform grid at the same budget and require the stratified estimates to fall inside its Wilson CIs (exit 1 on failure)")
	listStrata := flag.Bool("list-strata", false, "enumerate the injection-site strata per benchmark (sites, weights) and exit without running trials")
	noskip := flag.Bool("noskip", false, "disable event-driven cycle skipping (naive per-cycle loop)")
	prune := flag.Bool("prune", false, "pre-classify provably-masked trials without simulation (bit-identical results; reported as pruned_masked)")
	noCOW := flag.Bool("no-cow", false, "disable page-granular golden restore/diff (full copy + full scan per trial; results are byte-identical)")
	profileRestore := flag.Bool("profile-restore", false, "one-shot: per-benchmark restore/diff/prune profile table instead of a campaign report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Distributed worker mode: everything about the campaign comes from
	// the coordinator; local campaign flags are ignored.
	if *join != "" {
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		err := dist.RunWorker(ctx, dist.WorkerConfig{URL: *join, MetricsAddr: *metricsAddr, Logf: logf})
		switch {
		case err == nil:
			return
		case errors.Is(err, context.Canceled):
			logf("interrupted; streamed trials are preserved at the coordinator")
			os.Exit(3)
		default:
			fail("%v", err)
		}
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail("%v", err)
	}
	defer stopProf()

	scheme, err := core.SchemeByName(*schemeFlag)
	if err != nil {
		fail("%v (want one of %s)", err, strings.Join(core.SchemeFlagNames(), ", "))
	}
	arch, err := gpu.ConfigByName(*archName)
	if err != nil {
		fail("%v", err)
	}
	arch.NoCycleSkip = *noskip
	model, err := flame.ParseFaultModel(*modelFlag)
	if err != nil {
		fail("%v", err)
	}

	var names []string
	switch {
	case *benchList != "":
		names = strings.Split(*benchList, ",")
	case *suite == "all":
		for _, b := range bench.All() {
			names = append(names, b.Name)
		}
	case *suite == "quick":
		names = quickSuite
	default:
		fail("unknown suite %q (want quick or all)", *suite)
	}
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
	}

	if *ciTarget < 0 || *ciTarget >= 0.5 {
		fail("-ci-target %v out of range (0, 0.5)", *ciTarget)
	}
	if *ciTarget > 0 && !*stratify && *serve == "" {
		fail("-ci-target needs -stratify (adaptive sampler) or -serve (coordinator early stop)")
	}
	if *audit && !*stratify {
		fail("-audit needs -stratify")
	}
	skey, err := core.ParseStrataKey(*strataKey)
	if err != nil {
		fail("-strata-key: %v", err)
	}
	if *strataKey != "" && !*stratify && !*listStrata {
		fail("-strata-key needs -stratify or -list-strata")
	}
	if *stratify {
		switch {
		case *serve != "":
			fail("-stratify runs in-process; a distributed campaign uses the uniform grid (pair -serve with -ci-target for coordinator early stop)")
		case *resume:
			fail("-stratify cannot -resume: the adaptive schedule depends on every prior outcome")
		case *strikes > 1:
			fail("-stratify supports single-strike trials only")
		}
	}

	// Distributed coordinator mode: serve shards to workers instead of
	// computing trials locally.
	if *serve != "" {
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		fr, err := dist.Serve(ctx, dist.ServeConfig{
			Addr: *serve,
			Coord: dist.CoordConfig{
				Info: dist.CampaignInfo{
					Arch: arch, Scheme: scheme.FlagName(), WCDL: *wcdl, ExtendRegions: *extend,
					Benchmarks: names, Trials: *trials, Seed: *seed, Model: *modelFlag,
					StrikesPerTrial: *strikes, HangBudgetMult: *budget,
					TrialTimeoutMS: trialTimeout.Milliseconds(),
					Prune:          *prune, NoCOW: *noCOW, CITarget: *ciTarget,
					Trace: *fingerprint,
				},
				StateDir: *state, Dashboard: *dashboard, Logf: logf,
			},
		})
		interrupted := errors.Is(err, context.Canceled)
		if err != nil && !interrupted {
			fail("%v", err)
		}
		fmt.Print(fr.Report)
		if !fr.Integrity.Clean() || fr.Integrity.Missing > 0 {
			fmt.Printf("stream integrity: %s\n", fr.Integrity)
		}
		for _, s := range fr.Quarantined {
			fmt.Printf("QUARANTINED %s: excluded after repeated lease failures\n", s)
		}
		if len(fr.EarlyStopped) > 0 {
			fmt.Printf("early stop: %s converged under ci_target %g (%d shards cancelled)\n",
				strings.Join(fr.EarlyStopped, ", "), *ciTarget, len(fr.Cancelled))
		}
		if *jsonOut != "" {
			data, jerr := fr.Report.JSON()
			if jerr != nil {
				fail("json: %v", jerr)
			}
			data = append(data, '\n')
			if *jsonOut == "-" {
				os.Stdout.Write(data)
			} else if werr := os.WriteFile(*jsonOut, data, 0o644); werr != nil {
				fail("%v", werr)
			}
		}
		if interrupted || !fr.Complete {
			logf("partial report; resume with the same -state %s", *state)
			stopProf()
			os.Exit(3)
		}
		exitUncovered(rep2exit(fr.Report, model, scheme), stopProf)
		return
	}

	specs := make([]*core.KernelSpec, len(names))
	for i, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			fail("%v", err)
		}
		specs[i] = b.Spec()
	}

	// One-shot strata listing: the enumerated injection-site partition
	// the stratified sampler would draw from, without running trials.
	if *listStrata {
		opt := core.Options{Scheme: scheme, WCDL: *wcdl, ExtendRegions: *extend}
		fmt.Print(strataTable(arch, opt, specs, model, skey))
		stopProf()
		return
	}

	// One-shot restore/prune profile: per-benchmark page accounting
	// instead of a campaign report.
	if *profileRestore {
		ccfg := campaign.Config{
			Arch:            arch,
			Opt:             core.Options{Scheme: scheme, WCDL: *wcdl, ExtendRegions: *extend},
			Trials:          *trials,
			Seed:            *seed,
			Model:           model,
			StrikesPerTrial: *strikes,
			HangBudgetMult:  *budget,
		}
		fmt.Print(restoreProfile(ccfg, specs))
		stopProf()
		return
	}

	// Resume: scan the previous event stream for classified trials and
	// skip exactly those; new events append to the same file, and the
	// final report is rebuilt from the union.
	var skip func(string, int) bool
	if *resume {
		if *events == "" || *events == "-" {
			fail("-resume requires -events FILE")
		}
		if f, err := os.Open(*events); err == nil {
			done, derr := campaign.DoneSet(f)
			f.Close()
			if derr != nil {
				fail("%v", derr)
			}
			n := 0
			for _, m := range done {
				n += len(m)
			}
			logf("resuming: %d trials already classified in %s", n, *events)
			skip = func(bench string, t int) bool { return done[bench][t] }
		} else if !os.IsNotExist(err) {
			fail("%v", err)
		}
	}

	var eventsW io.Writer
	var eventsF *os.File
	if *events == "-" {
		eventsW = os.Stderr
	} else if *events != "" {
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if *resume {
			mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(*events, mode, 0o644)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		eventsW = f
		eventsF = f
	}

	// Graceful interrupt: finish in-flight trials, flush the stream,
	// print the partial report. A second signal kills immediately.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		logf("interrupt: finishing in-flight trials and flushing events (again to kill)")
		close(stop)
		<-sigc
		os.Exit(130)
	}()

	ccfg := campaign.Config{
		Arch:            arch,
		Opt:             core.Options{Scheme: scheme, WCDL: *wcdl, ExtendRegions: *extend},
		Specs:           specs,
		Trials:          *trials,
		Parallel:        *parallel,
		Seed:            *seed,
		Model:           model,
		StrikesPerTrial: *strikes,
		HangBudgetMult:  *budget,
		TrialTimeout:    *trialTimeout,
		Events:          eventsW,
		Stop:            stop,
		Skip:            skip,
		Prune:           *prune,
		NoCOW:           *noCOW,
		Stratify:        *stratify,
		CITarget:        *ciTarget,
		Pilot:           *pilot,
		StrataKey:       *strataKey,
		Trace:           *fingerprint,
	}
	rep, err := campaign.Run(ccfg)
	stopped := errors.Is(err, campaign.ErrStopped)
	if err != nil && !stopped {
		fail("%v", err)
	}

	// Under -resume the printed report is the union of the old stream
	// and this run, rebuilt by replay (lenient: a torn line from the
	// interrupted run was re-run above).
	if *resume && eventsF != nil {
		if err := eventsF.Sync(); err != nil {
			fail("%v", err)
		}
		f, err := os.Open(*events)
		if err != nil {
			fail("%v", err)
		}
		merged, ig, rerr := campaign.ReplayIntegrity(f)
		f.Close()
		if rerr != nil {
			fail("replay %s: %v", *events, rerr)
		}
		if ig.Malformed > 0 || ig.Dropped > 0 {
			logf("stream integrity: %s", ig)
		}
		rep = merged
	}
	fmt.Print(rep)

	if *jsonOut != "" {
		data, err := rep.JSON()
		if err != nil {
			fail("json: %v", err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fail("%v", err)
		}
	}

	if stopped {
		if *events != "" && *events != "-" {
			logf("stopped early: partial report; resume with -events %s -resume", *events)
		} else {
			logf("stopped early: partial report")
		}
		stopProf()
		os.Exit(3)
	}

	// Audit protocol: rerun the exact uniform grid at the same budget
	// and require every stratified point estimate to land inside the
	// grid's Wilson 95% interval.
	if *audit {
		ar, aerr := campaign.Audit(ccfg, rep)
		if aerr != nil {
			fail("audit: %v", aerr)
		}
		fmt.Print(ar)
		if !ar.Pass {
			stopProf()
			os.Exit(1)
		}
	}
	exitUncovered(rep2exit(rep, model, scheme), stopProf)
}

// strataTable renders the -list-strata view: every benchmark's
// enumerated (kernel, section, opcode-class) strata with exact site
// counts and their share of the injectable span.
func strataTable(arch gpu.Config, opt core.Options, specs []*core.KernelSpec, model flame.FaultModel, key core.StrataKey) string {
	t := &stats.Table{Header: []string{
		"benchmark", "stratum", "sites", "weight",
	}}
	var out strings.Builder
	for _, spec := range specs {
		g, err := core.GoldenRun(arch, spec, opt)
		if err != nil {
			fail("%s: %v", spec.Name, err)
		}
		sm, err := core.BuildStrataKeyed(arch, spec, g, model, key)
		if err != nil {
			fail("%s: %v", spec.Name, err)
		}
		inj := sm.InjectableSites()
		for _, st := range sm.Strata {
			t.Add(spec.Name, st.Key(), fmt.Sprintf("%d", st.Sites),
				fmt.Sprintf("%.4f", float64(st.Sites)/float64(inj)))
		}
		fmt.Fprintf(&out, "%s: span %d sites, %d injectable (%d strata), %d no-injection tail\n",
			spec.Name, sm.Span, inj, len(sm.Strata), sm.NoInjectionSites)
	}
	return fmt.Sprintf("injection-site strata: model=%s scheme=%s wcdl=%d\n%s%s",
		model, opt.Scheme, opt.WCDL, out.String(), t.String())
}

// restoreProfile runs every selected benchmark's trial sequence once on
// a pooled engine, in the ascending first-arm order campaign.Run
// dispatches, and renders the page-accounting table behind the
// -profile-restore flag: the memory footprint in pages, how many pages
// trials actually dirty (and so how many a restore copies and a diff
// scans), what fraction of trials the pruner classifies without
// simulation — or why pruning is unavailable for the benchmark — and
// the cycles the engine simulated per simulated trial (golden cursor
// included, forked prefixes excluded) as a fraction of the golden
// window.
func restoreProfile(cfg campaign.Config, specs []*core.KernelSpec) string {
	t := &stats.Table{Header: []string{
		"benchmark", "footprint", "dirty/trial", "restored/trial",
		"diff/trial", "sim/window", "pruned", "prune status",
	}}
	for _, spec := range specs {
		g, err := core.GoldenRun(cfg.Arch, spec, cfg.Opt)
		if err != nil {
			fail("%s: %v", spec.Name, err)
		}
		px := core.BuildPruneIndex(cfg.Arch, spec, g, 0)
		eng := core.NewEngine(cfg.Arch)
		trials := make([]core.TrialSpec, cfg.Trials)
		for i := range trials {
			trials[i] = cfg.TrialSpec(g, spec.Name, i)
		}
		sort.SliceStable(trials, func(i, k int) bool { return trials[i].Arms[0] < trials[k].Arms[0] })
		pruned := 0
		var cycles int64
		for _, ts := range trials {
			if _, ok := px.PruneTrial(g, ts); ok {
				pruned++
				continue
			}
			cycles += eng.RunTrial(spec, g, ts).Cycles
		}
		st := eng.Stats()
		simWindow := "-"
		if st.Trials > 0 {
			sim := cycles - st.ForkedCycles + st.CursorCycles
			simWindow = fmt.Sprintf("%.2f", float64(sim)/float64(st.Trials)/float64(g.Window))
		}
		perTrial := func(n int64) string {
			if st.Trials == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", float64(n)/float64(st.Trials))
		}
		status := "ok"
		if px.Disabled() != "" {
			status = px.Disabled()
		}
		footprint := (spec.MemBytes + gpu.PageBytes - 1) / gpu.PageBytes
		t.Add(spec.Name,
			fmt.Sprintf("%d pages", footprint),
			perTrial(st.DirtyPages), perTrial(st.RestoredPages), perTrial(st.DiffPages),
			simWindow, fmt.Sprintf("%d/%d", pruned, cfg.Trials), status)
	}
	return fmt.Sprintf("restore/prune profile: trials=%d/bench scheme=%s model=%s seed=%d\n%s",
		cfg.Trials, cfg.Opt.Scheme, cfg.Model, cfg.Seed, t.String())
}

// rep2exit reports whether the campaign found uncovered outcomes under
// the paper's fault model — a failed resilience claim scripts must see.
func rep2exit(rep *campaign.Report, model flame.FaultModel, scheme core.Scheme) bool {
	return model == flame.DataSlice && scheme.Recoverable() && scheme.Detects() &&
		(rep.Fleet.SDC > 0 || rep.Fleet.Hang > 0)
}

func exitUncovered(uncovered bool, stopProf func()) {
	if uncovered {
		stopProf() // os.Exit skips the deferred flush
		os.Exit(2)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flameinject: "+format+"\n", args...)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flameinject: "+format+"\n", args...)
	os.Exit(1)
}
