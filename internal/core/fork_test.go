package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// forkArch is a two-SM GTX480, small enough to run every benchmark
// under three schemes in a few seconds.
func forkArch() gpu.Config {
	arch := gpu.GTX480()
	arch.NumSMs = 2
	return arch
}

// freshTrial runs the full-simulation reference (core.RunTrial on a new
// device) and returns its result and the pages its launches wrote, read
// off the device through an observation-only hook.
func freshTrial(arch gpu.Config, spec *core.KernelSpec, g *core.Golden, ts core.TrialSpec) (*core.TrialResult, int) {
	var dev *gpu.Device
	ts.Hooks = &gpu.Hooks{OnWarpDispatch: func(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) { dev = d }}
	tr := core.RunTrial(arch, spec, g, ts)
	return tr, dev.Mem.DirtyPageCount()
}

// checkForked runs ts on the engine and compares it, field for field
// and dirty page for dirty page, with the reference; it also checks
// that the engine forked the main launch at the first arm (or at the
// launch's end when the arm lies beyond it).
func checkForked(t *testing.T, eng *core.Engine, spec *core.KernelSpec, g *core.Golden,
	ts core.TrialSpec, want *core.TrialResult, wantDirty int) {
	t.Helper()
	before := eng.Stats()
	got := eng.RunTrial(spec, g, ts)
	after := eng.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s arms %v: forked trial diverges from full simulation:\n  got %+v\n want %+v",
			g.Comp.Opt.Scheme, ts.Arms, got, want)
	}
	if d := int(after.DirtyPages - before.DirtyPages); d != wantDirty {
		t.Fatalf("%s arms %v: forked trial dirtied %d pages, full simulation %d",
			g.Comp.Opt.Scheme, ts.Arms, d, wantDirty)
	}
	if f := after.ForkedCycles - before.ForkedCycles; f > ts.Arms[0] || (f < ts.Arms[0] && f >= want.Cycles) {
		t.Fatalf("%s arms %v: forked at cycle %d", g.Comp.Opt.Scheme, ts.Arms, f)
	}
}

// TestForkedTrialsMatchFresh is the fork contract on every benchmark
// under Baseline, Flame and a duplication scheme: trials forked from
// the engine's golden cursor equal full-simulation trials in every
// TrialResult field and in the pages they dirty. Each benchmark's
// engine runs two arms per scheme — ascending under Baseline and the
// duplication scheme, descending (the cursor restarts) under Flame —
// and serves all three goldens (the cursor is replaced).
func TestForkedTrialsMatchFresh(t *testing.T) {
	arch := forkArch()
	opts := []core.Options{{Scheme: core.Baseline}, core.FlameOptions(), {Scheme: core.DupRenaming}}
	models := []flame.FaultModel{flame.FullSite, flame.DataSlice, flame.FullSite}
	for bi, b := range bench.All() {
		bi, b := bi, b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			spec := b.Spec()
			eng := core.NewEngine(arch)
			rng := rand.New(rand.NewSource(int64(bi) + 1))
			for oi, opt := range opts {
				g, err := core.GoldenRun(arch, spec, opt)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := rng.Int63n(g.ArmSpan()), rng.Int63n(g.ArmSpan())
				if lo > hi {
					lo, hi = hi, lo
				}
				trials := make([]core.TrialSpec, 2)
				want := make([]*core.TrialResult, 2)
				dirty := make([]int, 2)
				for i, arm := range []int64{lo, hi} {
					trials[i] = core.TrialSpec{Arms: []int64{arm}, Model: models[oi],
						Seed: rng.Int63(), MaxCycles: g.HangBudget(0)}
					want[i], dirty[i] = freshTrial(arch, spec, g, trials[i])
				}
				order := []int{0, 1} // ascending: the cursor moves forward
				if oi == 1 {
					order = []int{1, 0} // descending: the cursor restarts
				}
				for _, i := range order {
					checkForked(t, eng, spec, g, trials[i], want[i], dirty[i])
				}
			}
		})
	}
}

// panicObserver is a TrialObserver whose hooks panic.
type panicObserver struct{}

func (panicObserver) BeginTrial(*core.Golden, *flame.Injector) {}

func (panicObserver) TrialHooks() *gpu.Hooks {
	return &gpu.Hooks{OnExecuted: func(*gpu.Device, *gpu.SM, *gpu.Warp, int) {
		panic("deliberate forked-trial panic")
	}}
}

func (panicObserver) EndTrial(*core.TrialResult, []uint32, *core.Golden) {}

// TestForkedTrialsAnyOrder: on a few structurally different benchmarks,
// a shuffled sequence of single-strike trials, a multi-strike trial and
// a trial right after one that panicked mid-simulation (which discards
// the device and the cursor) all match full simulation.
func TestForkedTrialsAnyOrder(t *testing.T) {
	arch := forkArch()
	for _, name := range []string{"BFS", "Hotspot", "SRAD", "Histogram"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec := b.Spec()
			g, err := core.GoldenRun(arch, spec, core.FlameOptions())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			eng := core.NewEngine(arch)
			trial := func(arms ...int64) core.TrialSpec {
				return core.TrialSpec{Arms: arms, Seed: rng.Int63(), MaxCycles: g.HangBudget(0)}
			}
			var trials []core.TrialSpec
			for i := 0; i < 5; i++ {
				trials = append(trials, trial(rng.Int63n(g.ArmSpan())))
			}
			lo, hi := rng.Int63n(g.ArmSpan()/2), g.ArmSpan()/2+rng.Int63n(g.ArmSpan()/2)
			trials = append(trials, trial(lo, hi))
			for _, i := range rng.Perm(len(trials)) {
				want, dirty := freshTrial(arch, spec, g, trials[i])
				checkForked(t, eng, spec, g, trials[i], want, dirty)
			}

			ts := trial(g.ArmSpan() / 2)
			ts.Observer = panicObserver{}
			if tr := eng.RunTrial(spec, g, ts); tr.Outcome != core.OutcomeInternal {
				t.Fatalf("panicking forked trial: outcome %v", tr.Outcome)
			}
			next := trial(g.ArmSpan() / 3)
			want, dirty := freshTrial(arch, spec, g, next)
			checkForked(t, eng, spec, g, next, want, dirty)
		})
	}
}
