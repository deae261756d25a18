package core_test

import (
	"math/rand"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/gpu"
)

// TestMaskingCampaignMultiKernel pins the masking study on the
// multi-kernel workloads (BP, SRAD and Kmeans have Steps): every trial
// runs the whole workload on the trial engine, so MaskingCampaign's
// counts must equal Engine.RunTrial's per-trial outcomes under the same
// draws (arm, then seed), and some faults must be masked. Running the
// main kernel alone leaves memory that fails Validate whatever the
// fault, which counted every injected trial as an SDC. Seeds are the
// ones the flamebench masking study gives these benchmarks (7 plus the
// benchmark's index in name order).
func TestMaskingCampaignMultiKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload injection trials")
	}
	arch := gpu.GTX480()
	const trials = 5
	multi := 0
	for i, b := range bench.All() {
		spec := b.Spec()
		if len(spec.Steps) == 0 {
			continue
		}
		multi++
		name, seed := b.Name, int64(7+i)
		got, err := core.MaskingCampaign(arch, spec, trials, seed)
		if err != nil {
			t.Fatal(err)
		}

		g, err := core.GoldenRun(arch, spec, core.Options{Scheme: core.Baseline})
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(arch)
		rng := rand.New(rand.NewSource(seed))
		want := core.MaskingResult{Runs: trials}
		for i := 0; i < trials; i++ {
			arm := rng.Int63n(g.ArmSpan())
			tr := eng.RunTrial(spec, g, core.TrialSpec{Arms: []int64{arm}, Seed: rng.Int63()})
			switch tr.Outcome {
			case core.OutcomeNoInjection:
			case core.OutcomeMasked:
				want.Armed++
				want.Masked++
			case core.OutcomeSDC:
				want.Armed++
				want.SDC++
			default:
				want.Crashed++
			}
		}
		if *got != want {
			t.Errorf("%s: MaskingCampaign %s, per-trial engine outcomes %s", name, got, &want)
		}
		if got.Masked == 0 {
			t.Errorf("%s: no masked fault in %d trials: %s", name, trials, got)
		}
		t.Logf("%s: %s", name, got)
	}
	if multi == 0 {
		t.Fatal("no multi-kernel benchmark registered")
	}
}
