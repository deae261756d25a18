package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/harness"
)

// sweepSchemes are the schemes Figure13_14 runs besides the baseline.
var sweepSchemes = []core.Scheme{
	core.Renaming, core.Checkpointing,
	core.SensorRenaming, core.SensorCheckpointing,
	core.DupRenaming, core.DupCheckpointing,
	core.HybridRenaming, core.HybridCheckpointing,
}

// sweepBenches returns the sweep's benchmarks in a seed-shuffled order.
// Fault-free simulation has no randomness of its own, so the order is
// the part of the input the seed controls; the work is the same.
func sweepBenches(in input) ([]*bench.Benchmark, error) {
	names := append([]string(nil), in.size.sweep...)
	rng := rand.New(rand.NewSource(int64(in.seed)))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	out := make([]*bench.Benchmark, len(names))
	for i, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// runSweep is one Figure 13/14 sweep through harness.Figure13_14. Its
// set-up is the fault-free Baseline reference run of every benchmark
// through core.Run, whose cycle counts anchor the sweep's check.
func runSweep(_ *workload, in input, tr *tracer) (rep, error) {
	benches, err := sweepBenches(in)
	if err != nil {
		return rep{}, err
	}
	want, err := parseFigure13(filepath.Join(in.root, "results_full.txt"))
	if err != nil {
		return rep{}, err
	}
	arch := gpu.GTX480()
	start := time.Now()
	for _, b := range benches {
		res, err := core.Run(arch, b.Spec(), core.Options{Scheme: core.Baseline})
		if err != nil {
			return rep{}, fmt.Errorf("reference run %s: %w", b.Name, err)
		}
		if res.Stats.Cycles <= 0 {
			return rep{}, mismatchf("reference run %s: %d cycles", b.Name, res.Stats.Cycles)
		}
	}
	setupEnd := time.Now()
	m, err := harness.Figure13_14(harness.Config{Arch: arch, WCDL: 20, Benchmarks: benches})
	figEnd := time.Now()
	if err != nil {
		return rep{}, err
	}
	if err := checkFigure13(m, want); err != nil {
		return rep{}, err
	}
	r := rep{
		wall:  time.Since(start).Seconds(),
		setup: setupEnd.Sub(start).Seconds(),
		// Figure13_14 simulates every benchmark once per scheme plus
		// once for its baseline.
		trials: len(benches) * (len(sweepSchemes) + 1),
	}
	r.attempted = r.trials
	if tr != nil {
		if err := tr.addSweep(arch, benches, figEnd.Sub(setupEnd).Seconds()); err != nil {
			return rep{}, err
		}
	}
	return r, nil
}

// checkFigure13 compares every cell, as the harness prints it, with the
// committed results_full.txt row of its benchmark.
func checkFigure13(m *harness.OverheadMatrix, want map[string][]string) error {
	if len(m.Schemes) != len(sweepSchemes) {
		return mismatchf("%d schemes in Figure 13/14, %d expected", len(m.Schemes), len(sweepSchemes))
	}
	for j, name := range m.Benchmarks {
		row, ok := want[name]
		if !ok {
			return mismatchf("%s has no Figure 13/14 row in results_full.txt", name)
		}
		for i := range m.Schemes {
			if got := fmt.Sprintf("%.4f", m.Norm[i][j]); got != row[i] {
				return mismatchf("Figure 13/14 %s/%s = %s, results_full.txt has %s",
					name, m.Schemes[i], got, row[i])
			}
		}
	}
	return nil
}

// parseFigure13 reads the Figure 13/14 table of results_full.txt into
// benchmark -> printed cells.
func parseFigure13(path string) (map[string][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := map[string][]string{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Figure 13/14:"):
			in = true
		case !in || strings.HasPrefix(line, "benchmark") || strings.HasPrefix(line, "---"):
		case strings.TrimSpace(line) == "":
			if len(rows) > 0 {
				return rows, nil
			}
		default:
			f := strings.Fields(line)
			if len(f) != len(sweepSchemes)+1 {
				return nil, fmt.Errorf("%s: malformed Figure 13/14 row %q", path, line)
			}
			rows[f[0]] = f[1:]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no Figure 13/14 table", path)
	}
	return rows, nil
}
