package core

import (
	"reflect"
	"sync"
	"testing"
)

// TestGoldenSharedAcrossEnginesImmutable pins the sharing contract
// documented on Golden: one Golden is read concurrently by every worker
// engine of a campaign, so nothing in the trial path may write to it.
// Several engines hammer the same Golden in parallel (the race detector
// sees any write to its images under `go test -race`), and the
// fingerprint over every shared buffer must be unchanged afterwards.
func TestGoldenSharedAcrossEnginesImmutable(t *testing.T) {
	cfg := testCfg()
	for _, spec := range []*KernelSpec{saxpySpec(), stepSpec()} {
		g, err := GoldenRun(cfg, spec, FlameOptions())
		if err != nil {
			t.Fatal(err)
		}
		before := g.Fingerprint()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				eng := NewEngine(cfg)
				if w%2 == 1 {
					eng.SetNoCOW(true)
				}
				for i := int64(0); i < 12; i++ {
					ts := TrialSpec{
						Arms:      []int64{(i * g.Window) / 12},
						Seed:      i + int64(w)*1000,
						MaxCycles: g.HangBudget(0),
					}
					eng.RunTrial(spec, g, ts)
				}
			}(w)
		}
		wg.Wait()
		if after := g.Fingerprint(); after != before {
			t.Fatalf("%s: golden mutated by concurrent trials: fingerprint %#x -> %#x",
				spec.Name, before, after)
		}
	}
}

// TestGoldenScheduleDeterministic: the prune index, strata and census
// are pure functions of the schedule GoldenRun records, so two golden
// runs must record identical schedules, and recording must not perturb
// the run itself — cycles and final memory equal a plain simulation's.
func TestGoldenScheduleDeterministic(t *testing.T) {
	cfg := testCfg()
	for _, opt := range []Options{{Scheme: Baseline}, FlameOptions()} {
		for _, spec := range []*KernelSpec{saxpySpec(), stepSpec(), deadTailSpec()} {
			g1, err := GoldenRun(cfg, spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			g2, err := GoldenRun(cfg, spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(g1.schedule) == 0 || g1.scheduleFull {
				t.Fatalf("%s/%s: no schedule recorded", spec.Name, opt.Scheme)
			}
			if !reflect.DeepEqual(g1.schedule, g2.schedule) || g1.mainCycles != g2.mainCycles {
				t.Fatalf("%s/%s: two golden runs recorded different schedules", spec.Name, opt.Scheme)
			}
			plain, err := RunCompiledOpts(cfg, spec, g1.Comp, nil, RunOpts{KeepMem: true})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Stats.Cycles != g1.Window || !reflect.DeepEqual(plain.Mem, g1.Mem) {
				t.Fatalf("%s/%s: recorded golden (%d cycles) differs from a plain run (%d cycles)",
					spec.Name, opt.Scheme, g1.Window, plain.Stats.Cycles)
			}
			if len(spec.Steps) > 0 && g1.mainCycles >= g1.Window {
				t.Fatalf("%s/%s: main launch %d cycles of a %d-cycle window with Steps",
					spec.Name, opt.Scheme, g1.mainCycles, g1.Window)
			}
		}
	}
}
