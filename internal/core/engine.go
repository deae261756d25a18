package core

import (
	"fmt"

	"flame/internal/flame"
	"flame/internal/gpu"
)

// Engine runs injection trials on a pooled device: one gpu.Device for
// the workload at hand, reused across its trials, with global memory
// restored from the golden run's initial image instead of re-running
// host setup, and the scheme compilation shared from the golden run
// instead of recompiled.
// A campaign worker holds one Engine; trial results are bit-identical to
// the fresh-device path (RunTrial), which the equivalence suite asserts.
//
// Memory sizing is per workload, so a trial of another workload replaces
// the device; campaigns run one benchmark's trials together, and
// holding every workload's device would only add to the peak heap.
//
// The engine also keeps one golden cursor (see goldenCursor) and forks
// each trial's main launch from it at the trial's first arm cycle, so a
// trial simulates only from its first strike on. Trials run in
// ascending arm order reuse one cursor pass; any order is correct and
// never simulates more cycles than starting every trial at cycle 0.
//
// An Engine is not safe for concurrent use — give each worker its own.
// The Golden passed to RunTrial is shared read-only across all engines.
type Engine struct {
	cfg gpu.Config
	// dev is the pooled trial device of workload spec; cur is the
	// golden cursor trials fork from.
	spec *KernelSpec
	dev  *gpu.Device
	cur  *goldenCursor
	// noCOW disables the dirty-page restore/diff fast path: every trial
	// restores the full InitMem image and diffs the full footprint, as
	// the engine did before page tracking. Results are byte-identical
	// either way; the escape hatch exists so that can be asserted and so
	// a tracking bug can be ruled out in the field.
	noCOW bool
	stats RestoreStats
}

// RestoreStats accumulates the engine's dirty-page accounting. The
// restored-pages figure depends on trial scheduling (which trial last
// ran on this engine's device), so it lives here as a side channel and
// is deliberately kept out of TrialResult and the campaign report,
// which must stay byte-identical at any -parallel.
type RestoreStats struct {
	// Trials counts trials that reached the restore path.
	Trials int64
	// RestoredPages counts pages copied back from InitMem before
	// launches (includes each pooled device's initial full restore).
	RestoredPages int64
	// DirtyPages counts pages the trials actually wrote (deterministic
	// per trial: the bitmap is clean when each trial starts).
	DirtyPages int64
	// DiffPages counts pages compared during classification (dirty ∪
	// golden-vs-init divergence; zero for DUE/Hang trials, which skip
	// the diff).
	DiffPages int64
	// ForkedCycles counts main-launch cycles trials took from the golden
	// cursor instead of simulating (each trial's first arm cycle, or the
	// main launch's length when the arm lies beyond it).
	ForkedCycles int64
	// CursorCycles counts cycles the golden cursor simulated, restarts
	// included. Simulated cycles are the trials' Cycles less
	// ForkedCycles plus CursorCycles.
	CursorCycles int64
}

// Add accumulates another engine's counters (campaign-level summation
// across workers).
func (s *RestoreStats) Add(o RestoreStats) {
	s.Trials += o.Trials
	s.RestoredPages += o.RestoredPages
	s.DirtyPages += o.DirtyPages
	s.DiffPages += o.DiffPages
	s.ForkedCycles += o.ForkedCycles
	s.CursorCycles += o.CursorCycles
}

// NewEngine creates a trial engine for one architecture.
func NewEngine(cfg gpu.Config) *Engine {
	return &Engine{cfg: cfg}
}

// SetNoCOW switches the engine to full-footprint restore/diff (the
// pre-dirty-tracking behaviour). Classification is unchanged.
func (e *Engine) SetNoCOW(v bool) { e.noCOW = v }

// Stats returns the accumulated restore accounting.
func (e *Engine) Stats() RestoreStats { return e.stats }

// device returns the pooled device for a workload, creating it when the
// workload changes. A new device starts with every page marked dirty:
// its zeroed memory is not any golden's InitMem, so the first restore
// must copy the full image.
func (e *Engine) device(spec *KernelSpec) (*gpu.Device, error) {
	if e.dev != nil && e.spec == spec {
		return e.dev, nil
	}
	dev, err := gpu.NewDevice(e.cfg, spec.MemBytes)
	if err != nil {
		return nil, err
	}
	dev.Mem.MarkAllDirty()
	e.spec, e.dev = spec, dev
	return dev, nil
}

// RunTrial executes one injection trial on the pooled device and
// classifies the outcome exactly as core.RunTrial does, diffing the
// device's final memory against the golden image in place (no copy).
// The main launch is forked from the golden cursor at the first arm
// cycle unless the trial carries extra Hooks (which must observe the
// whole run) or no arm; a TrialObserver sees the trial from its fork
// point. Follow-on Steps run in full. Panics escaping the simulator are
// recovered into OutcomeInternal, as in core.RunTrial.
func (e *Engine) RunTrial(spec *KernelSpec, g *Golden, ts TrialSpec) (tr *TrialResult) {
	inj := flame.NewCampaignInjector(ts.Arms, g.MaxDelay, ts.Model, ts.Seed)
	tr = &TrialResult{}
	defer func() {
		if r := recover(); r != nil {
			trialPanicResult(tr, inj, r)
			// The pooled device (or the cursor) was abandoned mid-run;
			// discard both so the next trial starts from fresh ones.
			e.dev, e.cur = nil, nil
		}
	}()
	if ts.Observer != nil {
		ts.Observer.BeginTrial(g, inj)
	}
	ro := &RunOpts{MaxCycles: ts.MaxCycles, Hooks: ts.observerHooks(), Stop: ts.stopFunc()}
	dev, err := e.device(spec)
	if err == nil {
		// Restore the post-setup snapshot. The dirty-page path copies
		// only pages written since the last restore (every write in the
		// simulator — kernel stores, atomics, injected corruption — goes
		// through gpu.GlobalMem.Store, so the bitmap is complete even
		// after a DUE/Hang/panic-free partial run).
		if e.noCOW {
			copy(dev.Mem.Words(), g.InitMem)
			dev.Mem.ResetDirty()
			e.stats.RestoredPages += int64(dev.Mem.NumPages())
		} else {
			e.stats.RestoredPages += int64(dev.Mem.RestoreFrom(g.InitMem))
		}
		e.stats.Trials++
		res := &Result{}
		if ts.Hooks == nil && len(ts.Arms) > 0 {
			err = e.forkMain(dev, spec, g, ts.Arms[0], inj, ro, res)
		} else {
			err = launchOne(dev, spec, g.Comp, spec.Grid, spec.Block, spec.Params,
				inj, ro, res)
		}
		if err == nil {
			err = runSteps(dev, spec, g.StepComps, ro, res)
		}
		tr.Recoveries = res.Flame.Recoveries
		tr.Cycles = res.Stats.Cycles
		e.stats.DirtyPages += int64(dev.Mem.DirtyPageCount())
	}
	tr.Strikes = inj.FiredStrikes()
	tr.ExcludedStrikes = inj.ExcludedStrikes()
	tr.Detected = inj.Detected
	tr.Detections = inj.Detections
	tr.Description = inj.Description
	classifyTrial(tr, err, func() (int64, bool) {
		if e.noCOW {
			return memDiff(dev.Mem.Words(), g.Mem)
		}
		// Candidate pages: dirty in this trial OR differing between
		// InitMem and the golden final image. Any other page was
		// restored to InitMem, never written, and equal to g.Mem in the
		// fault-free run — it cannot diverge. Scanning candidates in
		// ascending page order therefore yields the true global first
		// diverging byte.
		addr, pages, eq := dev.Mem.DiffAgainst(g.Mem, g.diffPages)
		e.stats.DiffPages += int64(pages)
		return addr, eq
	})
	if ts.Observer != nil {
		var mem []uint32
		if dev != nil {
			mem = dev.Mem.Words()
		}
		ts.Observer.EndTrial(tr, mem, g)
	}
	return tr
}

// classifyTrial applies the standard outcome taxonomy. diff reports the
// first byte where final memory diverges from the golden image (and
// whether it does); it is only consulted for completed runs. SDC trials
// get the divergence address appended to their description so report
// exemplars say where memory went wrong.
func classifyTrial(tr *TrialResult, err error, diff func() (int64, bool)) {
	if err != nil {
		classifyTrialErr(tr, err)
		return
	}
	if tr.Strikes == 0 {
		tr.Outcome = OutcomeNoInjection
		return
	}
	if addr, eq := diff(); !eq {
		tr.Outcome = OutcomeSDC
		if addr >= 0 {
			tr.Description += fmt.Sprintf("; memory first diverged at %#x", addr)
		}
		return
	}
	if tr.Detections > 0 {
		tr.Outcome = OutcomeRecovered
		return
	}
	tr.Outcome = OutcomeMasked
}
