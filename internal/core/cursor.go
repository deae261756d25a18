package core

import (
	"fmt"

	"flame/internal/flame"
	"flame/internal/gpu"
)

// goldenCursor is an engine's fault-free copy of one golden's main
// launch, paused at a cycle boundary. A strike fires on the first
// eligible instruction at or after its arm cycle and the injector is
// inert before that, so up to a trial's first arm the trial IS the
// golden run, cycle for cycle: the engine forks each trial from the
// cursor instead of re-simulating that prefix. The cursor only moves
// forward; a trial armed behind it restarts it from InitMem, so it
// never simulates a cycle the trial that moved it would not have
// simulated itself.
type goldenCursor struct {
	spec *KernelSpec
	g    *Golden
	dev  *gpu.Device
	// ctl is the scheme's controller for the cursor's launch (nil for
	// schemes without one); forks copy its state.
	ctl     *flame.Controller
	started bool
}

// cursorAt returns the engine's cursor for (spec, g), advanced to cycle
// arm, or to the end of the main launch if that comes first. A new
// (spec, g) pair replaces the cursor; an arm behind it restarts it.
func (e *Engine) cursorAt(spec *KernelSpec, g *Golden, arm int64) (*goldenCursor, error) {
	c := e.cur
	if c == nil || c.spec != spec || c.g != g {
		dev, err := gpu.NewDevice(e.cfg, spec.MemBytes)
		if err != nil {
			return nil, err
		}
		dev.Mem.MarkAllDirty() // zeroed memory is not InitMem
		c = &goldenCursor{spec: spec, g: g, dev: dev}
		e.cur = c
	}
	if !c.started || c.dev.Cyc > arm {
		if err := c.restart(e.noCOW); err != nil {
			return nil, err
		}
	}
	from := c.dev.Cyc
	err := c.dev.Advance(arm)
	e.stats.CursorCycles += c.dev.Cyc - from
	return c, err
}

// restart rewinds the cursor to the start of the golden main launch.
func (c *goldenCursor) restart(noCOW bool) error {
	c.started = false
	if noCOW {
		copy(c.dev.Mem.Words(), c.g.InitMem)
		c.dev.Mem.ResetDirty()
	} else {
		c.dev.Mem.RestoreFrom(c.g.InitMem)
	}
	c.ctl = c.g.Comp.Controller()
	launch := &gpu.Launch{Prog: c.g.Comp.Prog, Grid: c.spec.Grid, Block: c.spec.Block, Params: c.spec.Params}
	if err := c.dev.Start(launch, schemeHooks(c.ctl, nil)); err != nil {
		return err
	}
	c.started = true
	return nil
}

// forkMain runs a trial's main launch from the golden cursor: the cursor
// moves to the trial's first arm cycle, dev (already restored to
// InitMem) takes over its state, and only the cycles from the arm on are
// simulated on dev. The result is the one launchOne would produce from
// cycle 0.
func (e *Engine) forkMain(dev *gpu.Device, spec *KernelSpec, g *Golden, arm int64,
	inj *flame.Injector, ro *RunOpts, res *Result) error {
	cur, err := e.cursorAt(spec, g, arm)
	if err != nil {
		return fmt.Errorf("%s/%s: golden cursor: %w", spec.Name, g.Comp.Opt.Scheme, err)
	}
	if e.noCOW {
		// Take the cursor's whole image rather than trusting its
		// dirty bitmap; Fork then only re-marks the pages it wrote.
		copy(dev.Mem.Words(), cur.dev.Mem.Words())
	}
	// The hooks close over ctl, which Fork fills in below; nothing runs
	// them before Finish.
	ctl := g.Comp.Controller()
	launch := &gpu.Launch{
		Prog: g.Comp.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params,
		MaxCycles: ro.MaxCycles, Stop: ro.Stop,
	}
	if err := dev.Fork(cur.dev, launch, gpu.CombineHooks(schemeHooks(ctl, inj), ro.Hooks)); err != nil {
		return fmt.Errorf("%s/%s: %w", spec.Name, g.Comp.Opt.Scheme, err)
	}
	if ctl != nil {
		ctl.Fork(cur.ctl, cur.dev, dev)
	}
	e.stats.ForkedCycles += cur.dev.Cyc
	st, err := dev.Finish()
	return launchDone(spec, g.Comp, ctl, st, err, res)
}
