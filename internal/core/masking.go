package core

import (
	"fmt"
	"math/rand"

	"flame/internal/gpu"
)

// MaskingResult summarizes fault injections into an UNPROTECTED kernel:
// with no detection and no recovery, each fault either vanishes (masked
// by dead values, overwrites, or min/max selections) or corrupts the
// output (SDC). The paper's Section IV cites a 63.5% user-visible
// masking rate for GPU applications; this campaign measures the
// bit-exact masking rate of our workloads, the quantity that bounds the
// sensors' false-positive rate.
type MaskingResult struct {
	Runs    int
	Armed   int // injector found an eligible target
	Masked  int // injected, output still bit-exact
	SDC     int // injected, output corrupted
	Crashed int // run failed outright
}

// MaskingRate returns the fraction of injected faults that were masked.
func (m *MaskingResult) MaskingRate() float64 {
	if m.Armed == 0 {
		return 0
	}
	return float64(m.Masked) / float64(m.Armed)
}

// String summarizes the campaign.
func (m *MaskingResult) String() string {
	return fmt.Sprintf("runs=%d injected=%d masked=%d sdc=%d crashed=%d (masking %.1f%%)",
		m.Runs, m.Armed, m.Masked, m.SDC, m.Crashed, m.MaskingRate()*100)
}

// MaskingCampaign injects n faults into baseline (unprotected) runs of
// the workload and classifies each outcome. It demonstrates why
// detection is needed at all: unmasked faults silently corrupt output.
// Each trial draws its arm cycle, then its injector seed, from one
// math/rand stream, and runs on the trial engine against a Baseline
// golden — every launch of the workload (Steps included), classified by
// bit-exact diff against the golden's final memory.
func MaskingCampaign(cfg gpu.Config, spec *KernelSpec, n int, seed int64) (*MaskingResult, error) {
	g, err := GoldenRun(cfg, spec, Options{Scheme: Baseline})
	if err != nil {
		return nil, err
	}
	eng := NewEngine(cfg)
	rng := rand.New(rand.NewSource(seed))
	out := &MaskingResult{Runs: n}
	for i := 0; i < n; i++ {
		arm := rng.Int63n(g.ArmSpan())
		tr := eng.RunTrial(spec, g, TrialSpec{Arms: []int64{arm}, Seed: rng.Int63()})
		switch tr.Outcome {
		case OutcomeNoInjection:
		case OutcomeMasked, OutcomeRecovered:
			out.Armed++
			out.Masked++
		case OutcomeSDC:
			out.Armed++
			out.SDC++
		default: // DUE, Hang, Internal: the run failed outright
			out.Crashed++
		}
	}
	return out, nil
}
