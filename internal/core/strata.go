package core

import (
	"fmt"

	"flame/internal/analysis"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/kernel"
)

// StrataKey selects the stratification key of the injection-site
// enumeration — which static dimensions carve the arm-cycle space.
type StrataKey string

const (
	// StrataKeySectionClass is the default (kernel, section,
	// opcode-class) key.
	StrataKeySectionClass StrataKey = "section-class"
	// StrataKeyLiveness additionally splits every group by the firing
	// instruction's static liveness class (dead / short / long / store,
	// from analysis.ComputeIntervals + flame.StoreReachSlice).
	// Outcome variance concentrates in the store-reaching strata —
	// dead and short/long-lived sites are certainly masked absent
	// detection — so the Neyman reallocation stops spending trials on
	// provably deterministic strata after the pilot round.
	StrataKeyLiveness StrataKey = "liveness"
)

// ParseStrataKey validates a -strata-key spelling ("" selects the
// default key).
func ParseStrataKey(s string) (StrataKey, error) {
	switch StrataKey(s) {
	case "", StrataKeySectionClass:
		return StrataKeySectionClass, nil
	case StrataKeyLiveness:
		return StrataKeyLiveness, nil
	}
	return "", fmt.Errorf("unknown strata key %q (have %q, %q)",
		s, StrataKeySectionClass, StrataKeyLiveness)
}

// SiteLabels computes the per-instruction liveness-class labels of a
// compiled program for the liveness stratification key: the
// analysis.SiteClass spelling for register-defining sites, "store" for
// global-store data sites (the corruption reaches memory by
// construction), and "" for never-corruptible instructions.
func SiteLabels(prog *isa.Program) []string {
	iv := analysis.ComputeIntervals(kernel.Build(prog))
	reach := flame.StoreReachSlice(prog)
	labels := make([]string, len(prog.Insts))
	for i := range prog.Insts {
		if c, ok := iv.ClassOf(i, reach); ok {
			labels[i] = c.String()
		} else if in := &prog.Insts[i]; in.Op == isa.OpSt && in.Space == isa.SpaceGlobal {
			labels[i] = analysis.SiteStoreReach.String()
		}
	}
	return labels
}

// BuildStrataKeyed enumerates the single-strike injection-site space of
// a golden run into (kernel, section, opcode-class) strata with exact
// site counts, folding the schedule GoldenRun recorded — the
// executed-instruction stream exactly as a trial's injector observes it
// — through a flame.StrataBuilder. It simulates nothing; the
// architecture argument is unused. StrataKeyLiveness feeds the builder
// per-instruction liveness-class labels (SiteLabels), splitting each
// (section, opcode-class) group by what the corrupted value can reach.
// A golden whose schedule exceeded DefaultPruneEventCap has no
// enumeration, and that is reported as an error.
func BuildStrataKeyed(_ gpu.Config, spec *KernelSpec, g *Golden, model flame.FaultModel, key StrataKey) (*flame.StrataMap, error) {
	if _, err := ParseStrataKey(string(key)); err != nil {
		return nil, err
	}
	events, err := g.recordedSchedule(0)
	if err != nil {
		return nil, err
	}
	sections := make([][2]int, len(g.Comp.Sections))
	for i, s := range g.Comp.Sections {
		sections[i] = [2]int{s.Start, s.End}
	}
	b := flame.NewStrataBuilder(g.Comp.Prog, spec.Name, sections, model, g.ArmSpan())
	if key == StrataKeyLiveness {
		b.SetSiteLabels(SiteLabels(g.Comp.Prog))
	}
	for i := range events {
		// An event with no strike lane never fires a strike (the
		// injector stays armed through it), so it owns no arm cycles.
		if ev := &events[i]; ev.mask != 0 {
			b.Observe(ev.cyc, int(ev.pc))
		}
	}
	return b.Finish(), nil
}

// ArmSpan is the single-strike arm-cycle space size: arms are drawn
// uniformly from [0, ArmSpan()). Defined on Golden so the uniform
// campaign's trial derivation and the stratified enumeration cannot
// drift apart.
func (g *Golden) ArmSpan() int64 { return g.Window*9/10 + 1 }
