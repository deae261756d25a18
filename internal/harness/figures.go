package harness

import (
	"fmt"

	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/sensor"
	"flame/internal/stats"
)

// Figure12 reproduces the WCDL-vs-sensor-count curves for the four GPU
// architectures.
func Figure12(cfg Config) []stats.Series {
	cfg.fill()
	var out []stats.Series
	t := &stats.Table{Header: []string{"sensors"}}
	for _, spec := range sensor.Specs {
		t.Header = append(t.Header, spec.Name)
	}
	type row struct {
		sensors int
		wcdl    []int
	}
	var rows []row
	for s := 50; s <= 300; s += 25 {
		rw := row{sensors: s}
		for _, spec := range sensor.Specs {
			d := sensor.Deployment{SensorsPerSM: s, SMAreaMM2: spec.SMAreaMM2, FreqMHz: spec.FreqMHz}
			rw.wcdl = append(rw.wcdl, d.WCDL())
		}
		rows = append(rows, rw)
	}
	for si, spec := range sensor.Specs {
		s := stats.Series{Name: spec.Name}
		for _, rw := range rows {
			s.Labels = append(s.Labels, fmt.Sprint(rw.sensors))
			s.Values = append(s.Values, float64(rw.wcdl[si]))
		}
		out = append(out, s)
	}
	for _, rw := range rows {
		cells := []any{rw.sensors}
		for _, w := range rw.wcdl {
			cells = append(cells, w)
		}
		t.Add(cells...)
	}
	cfg.printf("Figure 12: WCDL (cycles) vs sensors per SM\n%s\n", t)
	return out
}

// TableIIRow is one architecture's sensor deployment for 20-cycle WCDL.
type TableIIRow struct {
	Name         string
	FreqMHz      float64
	SMCount      int
	SensorsPerSM int
	AreaOverhead float64
}

// TableII reproduces the sensors-for-20-cycles deployment table.
func TableII(cfg Config) ([]TableIIRow, error) {
	cfg.fill()
	var out []TableIIRow
	t := &stats.Table{Header: []string{"GPU", "MHz", "SMs", "sensors/SM", "area overhead"}}
	for _, spec := range sensor.Specs {
		n, err := sensor.SensorsFor(20, spec.SMAreaMM2, spec.FreqMHz)
		if err != nil {
			return nil, err
		}
		d := sensor.Deployment{SensorsPerSM: n, SMAreaMM2: spec.SMAreaMM2, FreqMHz: spec.FreqMHz}
		row := TableIIRow{
			Name: spec.Name, FreqMHz: spec.FreqMHz, SMCount: spec.SMCount,
			SensorsPerSM: n, AreaOverhead: d.AreaOverhead(),
		}
		out = append(out, row)
		t.Add(row.Name, int(row.FreqMHz), row.SMCount, row.SensorsPerSM,
			fmt.Sprintf("%.4f%%", row.AreaOverhead*100))
	}
	cfg.printf("Table II: sensors per SM for 20-cycle WCDL\n%s\n", t)
	return out, nil
}

// Figure16Row is one benchmark's overhead with and without the
// region-extension optimization.
type Figure16Row struct {
	Benchmark      string
	Without, With  float64
	ElidedBarriers int
}

// Figure16 measures the impact of the III-E region-extension
// optimization on the benchmarks whose barrier pattern qualifies.
func Figure16(cfg Config) ([]Figure16Row, error) {
	r := newRunner(&cfg)
	var out []Figure16Row
	t := &stats.Table{Header: []string{"benchmark", "no-opt", "opt", "no-opt ovh", "opt ovh"}}
	for _, b := range cfg.Benchmarks {
		comp, err := core.Compile(b.Prog(), cfg.flameOptions())
		if err != nil {
			return nil, err
		}
		if len(comp.Sections) == 0 {
			continue // the optimization does not apply
		}
		without, err := r.overhead(cfg.Arch, b, core.Options{Scheme: core.SensorRenaming, WCDL: cfg.WCDL})
		if err != nil {
			return nil, err
		}
		with, err := r.overhead(cfg.Arch, b, cfg.flameOptions())
		if err != nil {
			return nil, err
		}
		out = append(out, Figure16Row{
			Benchmark: b.Name, Without: without, With: with,
			ElidedBarriers: comp.Form.ElidedBarriers,
		})
		t.Add(b.Name, without, with, stats.OverheadPct(without), stats.OverheadPct(with))
	}
	cfg.printf("Figure 16: impact of the region-extension optimization\n%s\n", t)
	return out, nil
}

// Figure17 sweeps the WCDL from 10 to 50 cycles and reports Flame's
// geomean overhead at each setting.
func Figure17(cfg Config) (stats.Series, error) {
	r := newRunner(&cfg)
	s := stats.Series{Name: "Flame overhead vs WCDL"}
	t := &stats.Table{Header: []string{"WCDL", "geomean", "overhead"}}
	for _, wcdl := range []int{10, 20, 30, 40, 50} {
		var norms []float64
		for _, b := range cfg.Benchmarks {
			ov, err := r.overhead(cfg.Arch, b,
				core.Options{Scheme: core.SensorRenaming, WCDL: wcdl, ExtendRegions: true})
			if err != nil {
				return s, err
			}
			norms = append(norms, ov)
		}
		g := stats.Geomean(norms)
		s.Labels = append(s.Labels, fmt.Sprint(wcdl))
		s.Values = append(s.Values, g)
		t.Add(wcdl, g, stats.OverheadPct(g))
	}
	cfg.printf("Figure 17: Flame overhead vs WCDL (%s, %s)\n%s\n", cfg.Arch.Name, cfg.Arch.Scheduler, t)
	return s, nil
}

// Figure18 measures Flame's overhead under the four warp scheduler
// models, each normalized to its own baseline.
func Figure18(cfg Config) (stats.Series, error) {
	cfg.fill()
	s := stats.Series{Name: "Flame overhead vs scheduler"}
	t := &stats.Table{Header: []string{"scheduler", "geomean", "overhead"}}
	for _, sched := range []gpu.SchedulerKind{gpu.GTO, gpu.OLD, gpu.LRR, gpu.TwoLevel} {
		arch := cfg.Arch
		arch.Scheduler = sched
		r := newRunner(&cfg)
		var norms []float64
		for _, b := range cfg.Benchmarks {
			ov, err := r.overhead(arch, b, cfg.flameOptions())
			if err != nil {
				return s, err
			}
			norms = append(norms, ov)
		}
		g := stats.Geomean(norms)
		s.Labels = append(s.Labels, sched.String())
		s.Values = append(s.Values, g)
		t.Add(sched.String(), g, stats.OverheadPct(g))
	}
	cfg.printf("Figure 18: Flame overhead per warp scheduler (WCDL=%d)\n%s\n", cfg.WCDL, t)
	return s, nil
}

// Figure19 measures Flame's overhead on the four GPU architectures, each
// normalized to its own baseline.
func Figure19(cfg Config) (stats.Series, error) {
	cfg.fill()
	s := stats.Series{Name: "Flame overhead vs architecture"}
	t := &stats.Table{Header: []string{"GPU", "geomean", "overhead"}}
	for _, arch := range gpu.Architectures() {
		r := newRunner(&cfg)
		var norms []float64
		for _, b := range cfg.Benchmarks {
			ov, err := r.overhead(arch, b, cfg.flameOptions())
			if err != nil {
				return s, err
			}
			norms = append(norms, ov)
		}
		g := stats.Geomean(norms)
		s.Labels = append(s.Labels, arch.Name)
		s.Values = append(s.Values, g)
		t.Add(arch.Name, g, stats.OverheadPct(g))
	}
	cfg.printf("Figure 19: Flame overhead per GPU architecture (WCDL=%d)\n%s\n", cfg.WCDL, t)
	return s, nil
}

// Discussion reproduces the Section IV arithmetic: false-positive rate
// from the field failure rate and masking rate, plus the measured
// average dynamic region size.
type Discussion struct {
	MaskingRate       float64
	FailuresPerDay    float64 // post-masking, from the field study
	RawErrorsPerDay   float64
	FalsePosPerDay    float64
	AvgDynRegionInsts float64
}

// DiscussionStats computes the Section IV numbers; the average dynamic
// region size is measured over the configured benchmarks under Flame as
// total source instructions over total dynamic regions (every boundary
// crossing plus each warp's final region at exit).
func DiscussionStats(cfg Config) (*Discussion, error) {
	cfg.fill()
	d := &Discussion{MaskingRate: 0.685, FailuresPerDay: 0.5}
	d.RawErrorsPerDay = d.FailuresPerDay / (1 - d.MaskingRate)
	d.FalsePosPerDay = d.RawErrorsPerDay * d.MaskingRate

	var insts, regions float64
	for _, b := range cfg.Benchmarks {
		res, err := core.Run(cfg.Arch, b.Spec(), cfg.flameOptions())
		if err != nil {
			return nil, err
		}
		warps := (b.Block.Count() + 31) / 32 * b.Grid.Count()
		insts += float64(res.Stats.SourceInsts)
		regions += float64(res.Stats.BoundaryCrossings) + float64(warps)
	}
	d.AvgDynRegionInsts = insts / regions
	cfg.printf("Section IV: raw errors/day=%.2f false positives/day=%.2f avg dynamic region=%.1f insts\n\n",
		d.RawErrorsPerDay, d.FalsePosPerDay, d.AvgDynRegionInsts)
	return d, nil
}

// MaskingRow is one benchmark's unprotected-injection outcome.
type MaskingRow struct {
	Benchmark string
	Result    core.MaskingResult
}

// MaskingStudy injects faults into UNPROTECTED baseline runs: without
// detection, unmasked faults become silent data corruptions, or crash
// the run outright (DUE or hang: the crashed column, kept out of the
// injected count and the masking rate). This is the motivation
// experiment — the SDC rate Flame exists to eliminate — and the
// measured masking rate bounds the sensors' false-positive rate
// (Section IV).
func MaskingStudy(cfg Config, runsPerBench int, seed int64) ([]MaskingRow, error) {
	cfg.fill()
	var out []MaskingRow
	t := &stats.Table{Header: []string{"benchmark", "injected", "masked", "sdc", "crashed", "masking"}}
	var inj, masked, sdc, crashed int
	for _, b := range cfg.Benchmarks {
		res, err := core.MaskingCampaign(cfg.Arch, b.Spec(), runsPerBench, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		out = append(out, MaskingRow{Benchmark: b.Name, Result: *res})
		t.Add(b.Name, res.Armed, res.Masked, res.SDC, res.Crashed, fmt.Sprintf("%.0f%%", res.MaskingRate()*100))
		inj += res.Armed
		masked += res.Masked
		sdc += res.SDC
		crashed += res.Crashed
		seed++
	}
	cfg.printf("Unprotected fault injection (bit-exact masking study)\n%s", t)
	if inj > 0 {
		cfg.printf("overall bit-exact masking rate: %.1f%% (%d/%d); without Flame the other %d injected runs are SDCs; crashed runs (DUE or hang, not counted as injected): %d\n\n",
			100*float64(masked)/float64(inj), masked, inj, sdc, crashed)
	}
	return out, nil
}

// AblationRow compares Flame with and without the mid-section
// verification-skip on one benchmark.
type AblationRow struct {
	Benchmark string
	Eager     float64 // overhead with interior boundaries still waiting
	Skipped   float64 // full design: interior waits skipped
}

// SectionSkipAblation quantifies the design decision that boundaries
// strictly inside an extended section need no verification wait (their
// verification cannot advance the recovery PC; collective section
// recovery subsumes them). It reruns Flame with the skip disabled on
// every section-forming benchmark.
func SectionSkipAblation(cfg Config) ([]AblationRow, error) {
	r := newRunner(&cfg)
	var out []AblationRow
	t := &stats.Table{Header: []string{"benchmark", "eager-verify", "skip-verify (Flame)"}}
	for _, b := range cfg.Benchmarks {
		comp, err := core.Compile(b.Prog(), cfg.flameOptions())
		if err != nil {
			return nil, err
		}
		if len(comp.Sections) == 0 {
			continue
		}
		opt := cfg.flameOptions()
		opt.EagerSectionVerify = true
		eager, err := r.overhead(cfg.Arch, b, opt)
		if err != nil {
			return nil, err
		}
		skipped, err := r.overhead(cfg.Arch, b, cfg.flameOptions())
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{Benchmark: b.Name, Eager: eager, Skipped: skipped})
		t.Add(b.Name, stats.OverheadPct(eager), stats.OverheadPct(skipped))
	}
	cfg.printf("Ablation: interior-boundary verification inside extended sections\n%s\n", t)
	return out, nil
}

// HardwareCost reproduces the Section VI-A2 arithmetic for the RBQ and
// RPT sizes.
type HardwareCost struct {
	WarpsPerScheduler int
	RBQEntryBits      int
	RBQBits           int
	RPTBits           int
}

// HardwareCostFor computes the hardware cost of Flame's structures for
// an architecture and WCDL.
func HardwareCostFor(cfg Config) HardwareCost {
	cfg.fill()
	warps := cfg.Arch.MaxWarpsPerSM / cfg.Arch.SchedulersPerSM
	entry := flame.BitsPerEntry(warps)
	hc := HardwareCost{
		WarpsPerScheduler: warps,
		RBQEntryBits:      entry,
		RBQBits:           cfg.WCDL * entry,
		RPTBits:           cfg.Arch.MaxWarpsPerSM * 32,
	}
	cfg.printf("Section VI-A2: RBQ entry=%d bits, RBQ=%d bits, RPT=%d bits\n\n",
		hc.RBQEntryBits, hc.RBQBits, hc.RPTBits)
	return hc
}

// InjectionRow summarizes a fault-injection campaign on one benchmark.
type InjectionRow struct {
	Benchmark string
	Result    core.CampaignResult
}

// InjectionStudy validates end-to-end recovery: for each benchmark it
// runs a campaign of fault injections under Flame and reports outcomes.
// Every injected error must be recovered (no SDC, no DUE).
func InjectionStudy(cfg Config, runsPerBench int, seed int64) ([]InjectionRow, error) {
	cfg.fill()
	var out []InjectionRow
	t := &stats.Table{Header: []string{"benchmark", "injected", "masked", "recovered", "sdc", "due", "hang"}}
	for _, b := range cfg.Benchmarks {
		res, err := core.Campaign(cfg.Arch, b.Spec(), cfg.flameOptions(), runsPerBench, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		out = append(out, InjectionRow{Benchmark: b.Name, Result: *res})
		t.Add(b.Name, res.Injected, res.Masked, res.Recovered, res.SDC, res.DUE, res.Hang)
		seed++
	}
	cfg.printf("Fault-injection validation under Flame\n%s\n", t)
	return out, nil
}

// FalsePositiveRow is one benchmark's spurious-recovery cost.
type FalsePositiveRow struct {
	Benchmark string
	// Overhead is the normalized execution time with nFP spurious
	// recoveries relative to the fault-free Flame run.
	Overhead float64
	NumFP    int
}

// FalsePositiveStudy measures the cost of sensor false positives
// (Section IV): recoveries triggered with no actual corruption. The
// paper argues the re-execution cost is negligible thanks to small
// regions; this experiment spreads nFP spurious detections across each
// benchmark's execution and reports the slowdown relative to Flame
// without false positives (outputs are validated in both runs).
func FalsePositiveStudy(cfg Config, nFP int) ([]FalsePositiveRow, error) {
	cfg.fill()
	var out []FalsePositiveRow
	t := &stats.Table{Header: []string{"benchmark", "recoveries", "overhead vs Flame"}}
	for _, b := range cfg.Benchmarks {
		spec := b.Spec()
		comp, err := core.Compile(spec.Prog, cfg.flameOptions())
		if err != nil {
			return nil, err
		}
		clean, err := core.RunCompiled(cfg.Arch, spec, comp, nil)
		if err != nil {
			return nil, err
		}
		ctlRun := func() (*core.Result, error) {
			dev, err := gpu.NewDevice(cfg.Arch, spec.MemBytes)
			if err != nil {
				return nil, err
			}
			if spec.Setup != nil {
				spec.Setup(dev.Mem.Words())
			}
			ctl := flame.NewController(flame.Mode{
				WCDL: cfg.WCDL, UseRBQ: true, Sections: comp.Sections,
			})
			// Spread the spurious detections across the main launch (for
			// multi-kernel applications the total is split evenly).
			window := clean.Stats.Cycles / int64(len(spec.Steps)+1)
			for i := 1; i <= nFP; i++ {
				ctl.FalsePositives = append(ctl.FalsePositives, window*int64(i)/int64(nFP+1))
			}
			launch := &gpu.Launch{Prog: comp.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}
			st, err := dev.Run(launch, ctl.Hooks())
			if err != nil {
				return nil, err
			}
			res := &core.Result{Compiled: comp, Stats: *st}
			res.Flame = ctl.Stats
			// Multi-kernel applications: run the remaining launches (the
			// false positives were confined to the first).
			for i, step := range spec.Steps {
				sc, err := core.Compile(step.Prog, cfg.flameOptions())
				if err != nil {
					return nil, fmt.Errorf("%s step %d: %w", b.Name, i+1, err)
				}
				sctl := sc.Controller()
				sl := &gpu.Launch{Prog: sc.Prog, Grid: step.Grid, Block: step.Block, Params: step.Params}
				sst, err := dev.Run(sl, sctl.Hooks())
				if err != nil {
					return nil, err
				}
				res.Stats.Accumulate(sst)
			}
			if spec.Validate != nil {
				if verr := spec.Validate(dev.Mem.Words()); verr != nil {
					return nil, fmt.Errorf("%s: post-false-positive validation: %w", b.Name, verr)
				}
			}
			return res, nil
		}
		res, err := ctlRun()
		if err != nil {
			return nil, err
		}
		ov := float64(res.Stats.Cycles) / float64(clean.Stats.Cycles)
		out = append(out, FalsePositiveRow{Benchmark: b.Name, Overhead: ov, NumFP: int(res.Flame.Recoveries)})
		t.Add(b.Name, res.Flame.Recoveries, stats.OverheadPct(ov))
	}
	cfg.printf("Section IV: cost of %d spurious (false-positive) recoveries\n%s\n", nFP, t)
	return out, nil
}

// OccupancyStudy tests the paper's Section III-C premise directly:
// WCDL hiding works "provided there are enough warps to schedule". It
// caps the blocks resident per SM from 1 upward and reports Flame's
// overhead at each occupancy on the configured benchmarks — the
// overhead should fall as warp-level parallelism grows.
func OccupancyStudy(cfg Config) (stats.Series, error) {
	cfg.fill()
	s := stats.Series{Name: "Flame overhead vs occupancy"}
	t := &stats.Table{Header: []string{"max blocks/SM", "geomean", "overhead"}}
	for _, maxBlocks := range []int{1, 2, 4, 8} {
		arch := cfg.Arch
		arch.MaxBlocksPerSM = maxBlocks
		r := newRunner(&cfg)
		var norms []float64
		for _, b := range cfg.Benchmarks {
			ov, err := r.overhead(arch, b, cfg.flameOptions())
			if err != nil {
				return s, err
			}
			norms = append(norms, ov)
		}
		g := stats.Geomean(norms)
		s.Labels = append(s.Labels, fmt.Sprint(maxBlocks))
		s.Values = append(s.Values, g)
		t.Add(maxBlocks, g, stats.OverheadPct(g))
	}
	cfg.printf("Occupancy study: Flame overhead vs resident blocks per SM (WCDL=%d)\n%s\n", cfg.WCDL, t)
	return s, nil
}

// CkptPlacementRow compares checkpoint store placements on one benchmark.
type CkptPlacementRow struct {
	Benchmark string
	AtDef     float64
	AtEnd     float64
}

// CheckpointPlacementStudy compares Penny's two checkpoint placements —
// at each definition vs grouped at region ends (Figure 3(b)) — under the
// recovery-only Checkpointing scheme.
func CheckpointPlacementStudy(cfg Config) ([]CkptPlacementRow, error) {
	r := newRunner(&cfg)
	var out []CkptPlacementRow
	t := &stats.Table{Header: []string{"benchmark", "at-def", "at-region-end"}}
	for _, b := range cfg.Benchmarks {
		atDef, err := r.overhead(cfg.Arch, b, core.Options{Scheme: core.Checkpointing, WCDL: cfg.WCDL})
		if err != nil {
			return nil, err
		}
		atEnd, err := r.overhead(cfg.Arch, b, core.Options{Scheme: core.Checkpointing, WCDL: cfg.WCDL, CkptAtRegionEnd: true})
		if err != nil {
			return nil, err
		}
		out = append(out, CkptPlacementRow{Benchmark: b.Name, AtDef: atDef, AtEnd: atEnd})
		t.Add(b.Name, stats.OverheadPct(atDef), stats.OverheadPct(atEnd))
	}
	cfg.printf("Checkpoint placement study (Checkpointing scheme)\n%s\n", t)
	return out, nil
}
