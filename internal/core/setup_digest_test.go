package core_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// setupDigests pins, per benchmark, a SHA-256 prefix over everything
// the campaign engine derives from the fault-free golden schedule: the
// strata maps (stratum keys, exact site counts, arm intervals and the
// no-injection tail) under both fault models and both strata keys, and
// the SiteCensus under both fault models, for a Baseline and a Flame
// golden. The digests were computed when strata still came from a
// dedicated replay of the fault-free run and the census from a separate
// recording; the single recorded golden pass must reproduce them bit
// for bit.
var setupDigests = map[string]string{
	"AES":       "4f9b42a3b2df0249",
	"BFS":       "a132bdce3ab7c3b7",
	"BO":        "35007afc80abed11",
	"BP":        "78d320fdb60b6440",
	"BS":        "f34baa71ad941aff",
	"CFD":       "c8bb93769454f083",
	"CG":        "1ec260b854d37e6f",
	"CS":        "89bc0ec75bcb41e6",
	"DWT":       "d96a12c50de8a779",
	"GUPS":      "1fdee2dfe0c72cc2",
	"Gaussian":  "8ad1ef88b2b6e0fc",
	"Histogram": "341920c4b1ec2b3b",
	"Hotspot":   "fa14d5972301891e",
	"IS":        "15ba61422401b747",
	"KNN":       "e2b20158f16a084f",
	"Kmeans":    "22558c4e6834107d",
	"LBM":       "c5611d272f68f713",
	"LPS":       "d31fcf9c7bac516c",
	"LUD":       "abf22a58d6c510be",
	"LavaMD":    "a8373f2277a602e5",
	"NN":        "4d35e3cda4b0f394",
	"NW":        "0cfe78380d916891",
	"PF":        "502e7137e38d352e",
	"SC":        "8fd1df2038c313e5",
	"SGEMM":     "59f3075fe907474f",
	"SN":        "970e3b01a5d34246",
	"SP":        "77d33d5d9e39a963",
	"SQ":        "64bdbae8f97f58c5",
	"SRAD":      "2e63570a984a2a6d",
	"Stencil":   "5fba87170c53f00e",
	"TPACF":     "5ebf8f5ac5ae3dda",
	"Transpose": "9e1a06ed30dc2189",
	"Triad":     "52833d989067904f",
	"WT":        "a7949d5719b8c63f",
}

// setupDigest folds one benchmark's set-up artifacts into a digest.
// fmt's %+v prints unexported fields too, so the strata maps' interval
// lists and cumulative counts are covered.
func setupDigest(t *testing.T, arch gpu.Config, spec *core.KernelSpec) string {
	t.Helper()
	h := sha256.New()
	for _, opt := range []core.Options{{Scheme: core.Baseline}, core.FlameOptions()} {
		g, err := core.GoldenRun(arch, spec, opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", spec.Name, opt.Scheme, err)
		}
		px := core.BuildPruneIndex(arch, spec, g, 0)
		for _, model := range []flame.FaultModel{flame.DataSlice, flame.FullSite} {
			for _, key := range []core.StrataKey{core.StrataKeySectionClass, core.StrataKeyLiveness} {
				sm, err := core.BuildStrataKeyed(arch, spec, g, model, key)
				if err != nil {
					t.Fatalf("%s/%s/%s/%s: %v", spec.Name, opt.Scheme, model, key, err)
				}
				fmt.Fprintf(h, "%s/%s/%s/%+v\n", opt.Scheme, model, key, *sm)
			}
			if c, err := px.Census(g, model); err != nil {
				fmt.Fprintf(h, "%s/%s/census error: %v\n", opt.Scheme, model, err)
			} else {
				fmt.Fprintf(h, "%s/%s/census %+v\n", opt.Scheme, model, *c)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestSetupArtifactDigests checks the strata and census digests of
// every shipped benchmark against the pinned values.
func TestSetupArtifactDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("34 benchmarks x 2 golden runs")
	}
	arch := gpu.GTX480()
	arch.NumSMs = 2
	for _, b := range bench.All() {
		got := setupDigest(t, arch, b.Spec())
		if want := setupDigests[b.Name]; got != want {
			t.Errorf("%q: %q, // want %q", b.Name, got, want)
		}
	}
}
