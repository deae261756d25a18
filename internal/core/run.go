package core

import (
	"errors"
	"fmt"
	"math/rand"

	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
)

// ErrValidation is wrapped by run errors caused by the spec's output
// validation rejecting the final memory state (as opposed to the
// simulator failing outright). Campaign classifiers match it with
// errors.Is to tell an SDC from a DUE.
var ErrValidation = errors.New("output validation failed")

// Step is one additional kernel launch of a multi-kernel application,
// executed after the main kernel on the same device (global memory
// persists between launches).
type Step struct {
	Prog   *isa.Program
	Grid   isa.Dim3
	Block  isa.Dim3
	Params []uint32
}

// KernelSpec is a self-contained runnable workload: program, launch
// geometry, input setup and output validation against golden results.
// Applications with several kernels list the follow-on launches in
// Steps; Validate checks the memory state after the last one.
type KernelSpec struct {
	Name   string
	Prog   *isa.Program
	Grid   isa.Dim3
	Block  isa.Dim3
	Params []uint32
	// Steps are additional launches run after the main kernel.
	Steps []Step
	// MemBytes sizes device global memory for this workload.
	MemBytes int
	// Setup initializes global memory before the launch.
	Setup func(mem []uint32)
	// Validate checks global memory after the launch; nil return means
	// the output is correct.
	Validate func(mem []uint32) error
}

// Result is one simulated run of a compiled kernel.
type Result struct {
	Compiled *Compiled
	Stats    gpu.Stats
	Flame    flame.Stats
	// Injection is set when the run carried a fault injector.
	Injection *flame.Injector
	// Mem holds the final global memory when RunOpts.KeepMem asked for it
	// (campaign trials diff it against a golden run).
	Mem []uint32
}

// RunOpts tunes a single simulation beyond what the compiled scheme
// dictates. The zero value reproduces RunCompiled's behaviour.
type RunOpts struct {
	// MaxCycles, when positive, bounds each launch of the run (the
	// campaign hang watchdog). Zero keeps the device-wide default.
	MaxCycles int64
	// SkipValidate suppresses the spec's output validation (campaigns
	// classify by golden-memory diff instead).
	SkipValidate bool
	// KeepMem copies the device's final global memory into Result.Mem.
	KeepMem bool
	// Hooks are extra observer hooks (telemetry collectors, tracers,
	// samplers) combined after the scheme's own hooks on every launch of
	// the run, main kernel and Steps alike. Combining after the scheme
	// matters for cycle-exact observation: a telemetry OnCycle then sees
	// RBQ pops the controller performed in the same cycle.
	Hooks *gpu.Hooks
	// Stop, when non-nil, is polled periodically by every launch of the
	// run; returning true aborts with gpu.ErrWallClock (the wall-clock
	// trial watchdog).
	Stop func() bool
}

// Run compiles the spec's kernels for the scheme and simulates them on a
// fresh device of the given configuration, validating the output.
func Run(cfg gpu.Config, spec *KernelSpec, opt Options) (*Result, error) {
	comp, err := Compile(spec.Prog, opt)
	if err != nil {
		return nil, err
	}
	return RunCompiled(cfg, spec, comp, nil)
}

// RunCompiled simulates an already-compiled application, optionally with
// a fault injector attached; see RunCompiledOpts.
func RunCompiled(cfg gpu.Config, spec *KernelSpec, comp *Compiled, inj *flame.Injector) (*Result, error) {
	return RunCompiledOpts(cfg, spec, comp, inj, RunOpts{})
}

// RunCompiledOpts simulates an already-compiled application on a fresh
// device, optionally with a fault injector attached. comp is the
// compilation of the main kernel; follow-on Steps are compiled with the
// same options. The injector observes the main kernel's launch; under a
// detecting scheme the controller drives its detection, while on an
// unprotected (Baseline) compilation the strikes land with nothing
// watching for them.
func RunCompiledOpts(cfg gpu.Config, spec *KernelSpec, comp *Compiled, inj *flame.Injector, ro RunOpts) (*Result, error) {
	steps, err := compileSteps(spec, comp.Opt)
	if err != nil {
		return nil, err
	}
	dev, err := gpu.NewDevice(cfg, spec.MemBytes)
	if err != nil {
		return nil, err
	}
	if spec.Setup != nil {
		spec.Setup(dev.Mem.Words())
	}
	res := &Result{Compiled: comp, Injection: inj}
	err = launchOne(dev, spec, comp, spec.Grid, spec.Block, spec.Params, inj, &ro, res)
	if err == nil {
		err = runSteps(dev, spec, steps, &ro, res)
	}
	if ro.KeepMem {
		res.Mem = append([]uint32(nil), dev.Mem.Words()...)
	}
	if err == nil && !ro.SkipValidate {
		err = validateOutput(spec, comp, dev.Mem.Words())
	}
	return res, err
}

// compileSteps compiles the spec's follow-on Steps with the main
// kernel's options, in spec order.
func compileSteps(spec *KernelSpec, opt Options) ([]*Compiled, error) {
	steps := make([]*Compiled, len(spec.Steps))
	for i, step := range spec.Steps {
		var err error
		if steps[i], err = Compile(step.Prog, opt); err != nil {
			return nil, fmt.Errorf("%s step %d: %w", spec.Name, i+1, err)
		}
	}
	return steps, nil
}

// launchOne runs one compiled kernel on the device under the scheme's
// controller, optionally with the injector attached (on an unprotected
// compilation it observes executed instructions with nothing watching
// for its strikes), accumulating stats into res. ro's hooks are
// combined after the scheme's own. It is the one launch path of
// RunCompiledOpts, GoldenRun and Engine.RunTrial (whose forked main
// launch differs only in where the simulation starts).
func launchOne(dev *gpu.Device, spec *KernelSpec, c *Compiled, grid, block isa.Dim3,
	params []uint32, inj *flame.Injector, ro *RunOpts, res *Result) error {
	ctl := c.Controller()
	launch := &gpu.Launch{
		Prog: c.Prog, Grid: grid, Block: block, Params: params,
		MaxCycles: ro.MaxCycles, Stop: ro.Stop,
	}
	st, err := dev.Run(launch, gpu.CombineHooks(schemeHooks(ctl, inj), ro.Hooks))
	return launchDone(spec, c, ctl, st, err, res)
}

// schemeHooks returns a launch's scheme hooks: the controller's, with
// the injector (if any) attached to drive its detection, or on an
// unprotected compilation the injector's bare observation (nil when
// there is neither).
func schemeHooks(ctl *flame.Controller, inj *flame.Injector) *gpu.Hooks {
	switch {
	case ctl != nil:
		if inj != nil {
			ctl.Inj = inj
		}
		return ctl.Hooks()
	case inj != nil:
		return &gpu.Hooks{OnExecuted: func(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
			inj.Observe(d, sm, w, pc)
		}}
	}
	return nil
}

// launchDone names a failed launch or accumulates a finished one's
// simulator and controller stats into res.
func launchDone(spec *KernelSpec, c *Compiled, ctl *flame.Controller, st *gpu.Stats, err error, res *Result) error {
	if err != nil {
		return fmt.Errorf("%s/%s: %w", spec.Name, c.Opt.Scheme, err)
	}
	res.Stats.Accumulate(st)
	if ctl != nil {
		res.Flame.Accumulate(&ctl.Stats)
	}
	return nil
}

// runSteps runs the spec's follow-on Steps, compiled as steps, after the
// main launch. The injector never observes them.
func runSteps(dev *gpu.Device, spec *KernelSpec, steps []*Compiled, ro *RunOpts, res *Result) error {
	for i, step := range spec.Steps {
		if err := launchOne(dev, spec, steps[i], step.Grid, step.Block, step.Params, nil, ro, res); err != nil {
			return err
		}
	}
	return nil
}

// validateOutput applies the spec's output validation to final memory.
func validateOutput(spec *KernelSpec, comp *Compiled, mem []uint32) error {
	if spec.Validate == nil {
		return nil
	}
	if verr := spec.Validate(mem); verr != nil {
		return fmt.Errorf("%s/%s: %w: %v", spec.Name, comp.Opt.Scheme, ErrValidation, verr)
	}
	return nil
}

// Overhead returns the normalized execution time of a scheme run against
// a baseline run (1.0 = no overhead).
func Overhead(scheme, baseline *Result) float64 {
	if baseline.Stats.Cycles == 0 {
		return 0
	}
	return float64(scheme.Stats.Cycles) / float64(baseline.Stats.Cycles)
}

// CampaignResult summarizes a fault-injection campaign in the standard
// masked / detected+recovered / SDC / DUE / hang taxonomy. Counts are of
// trials (a trial may carry several strikes).
type CampaignResult struct {
	Runs     int
	Injected int // trials where at least one strike corrupted state
	Detected int // trials where every strike was detected
	// Masked: output bit-identical to the golden run although no
	// detection fired (the corruption died out on its own).
	Masked int
	// Recovered: detected, recovered, and output bit-identical to the
	// golden run.
	Recovered int
	// SDC: run completed with memory differing from the golden run
	// (silent data corruption).
	SDC int
	// DUE: run failed outright (detected unrecoverable error).
	DUE int
	// Hang: run exhausted its cycle budget (livelocked control flow).
	Hang int
	// Benign: armed but no eligible instruction was corrupted.
	Benign int
	// Internal: the trial infrastructure panicked (recovered at the
	// trial boundary); excluded from coverage denominators.
	Internal int
}

// Add folds one classified trial into the counters.
func (c *CampaignResult) Add(t *TrialResult) {
	if t.Strikes > 0 {
		c.Injected++
	}
	if t.Detected {
		c.Detected++
	}
	switch t.Outcome {
	case OutcomeMasked:
		c.Masked++
	case OutcomeRecovered:
		c.Recovered++
	case OutcomeSDC:
		c.SDC++
	case OutcomeDUE:
		c.DUE++
	case OutcomeHang:
		c.Hang++
	case OutcomeNoInjection:
		c.Benign++
	case OutcomeInternal:
		c.Internal++
	}
}

// String summarizes the campaign.
func (c *CampaignResult) String() string {
	s := fmt.Sprintf("runs=%d injected=%d masked=%d recovered=%d sdc=%d due=%d hang=%d benign=%d",
		c.Runs, c.Injected, c.Masked, c.Recovered, c.SDC, c.DUE, c.Hang, c.Benign)
	if c.Internal > 0 {
		s += fmt.Sprintf(" internal=%d", c.Internal)
	}
	return s
}

// Campaign runs n single-strike fault-injection trials of the spec under
// the scheme, classifying each against a fault-free golden run. Each
// trial arms the injector at a random cycle within the fault-free
// execution window. The detection delay is uniform in [1, WCDL] for
// sensor schemes and immediate for duplication/hybrid detection. It is a
// thin sequential wrapper over the trial engine (GoldenRun + RunTrial);
// the campaign package runs the same trials in parallel with
// reproducible seeding.
func Campaign(cfg gpu.Config, spec *KernelSpec, opt Options, n int, seed int64) (*CampaignResult, error) {
	if opt.Scheme == Baseline || !opt.Scheme.Detects() {
		return nil, fmt.Errorf("core: scheme %s has no detection; campaign is meaningless", opt.Scheme)
	}
	g, err := GoldenRun(cfg, spec, opt)
	if err != nil {
		return nil, err
	}
	eng := NewEngine(cfg)
	rng := rand.New(rand.NewSource(seed))
	out := &CampaignResult{Runs: n}
	for i := 0; i < n; i++ {
		arm := rng.Int63n(g.ArmSpan())
		tr := eng.RunTrial(spec, g, TrialSpec{
			Arms:      []int64{arm},
			Seed:      rng.Int63(),
			MaxCycles: g.HangBudget(0),
		})
		out.Add(tr)
	}
	return out, nil
}
