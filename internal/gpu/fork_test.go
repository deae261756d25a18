package gpu_test

import (
	"reflect"
	"testing"

	"flame/internal/bench"
	"flame/internal/gpu"
)

// TestForkMatchesRun: for every benchmark, a launch advanced to cycle c
// on one device and forked onto a second (pooled, reused) device
// finishes exactly as an uninterrupted Run does — stats, cycles, final
// memory and the dirty-page set — with c at 0, inside a fast-forwarded
// idle span, at the launch's end and past it, with cycle skipping on
// and off.
func TestForkMatchesRun(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			spec := b.Spec()
			init := make([]uint32, (spec.MemBytes+3)/4)
			if spec.Setup != nil {
				spec.Setup(init)
			}
			launch := func() *gpu.Launch {
				return &gpu.Launch{Prog: spec.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}
			}
			device := func(cfg gpu.Config) *gpu.Device {
				d, err := gpu.NewDevice(cfg, spec.MemBytes)
				if err != nil {
					t.Fatal(err)
				}
				copy(d.Mem.Words(), init)
				return d
			}
			gap := int64(-1) // a cycle strictly inside a skipped span
			for _, skip := range []bool{true, false} {
				cfg := gpu.GTX480()
				cfg.NoCycleSkip = !skip
				ref := device(cfg)
				probe := &gpu.Hooks{OnAdvance: func(d *gpu.Device, from, to int64) int64 {
					if gap < 0 && to-from >= 2 {
						gap = (from + to) / 2
					}
					return to
				}}
				want, err := ref.Run(launch(), probe)
				if err != nil {
					t.Fatal(err)
				}
				if skip && gap < 0 {
					t.Fatalf("skip on: no idle span of two or more cycles in %d cycles", want.Cycles)
				}
				src, dst := device(cfg), device(cfg)
				if err := src.Start(launch(), nil); err != nil {
					t.Fatal(err)
				}
				for _, c := range []int64{0, gap, want.Cycles, want.Cycles + 100} {
					if err := src.Advance(c); err != nil {
						t.Fatal(err)
					}
					if src.Cyc != min(c, want.Cycles) {
						t.Fatalf("skip=%v: advance to %d paused at %d", skip, c, src.Cyc)
					}
					copy(dst.Mem.Words(), init)
					dst.Mem.ResetDirty()
					if err := dst.Fork(src, launch(), nil); err != nil {
						t.Fatal(err)
					}
					got, err := dst.Finish()
					if err != nil {
						t.Fatalf("skip=%v fork at %d: %v", skip, c, err)
					}
					if *got != *want {
						t.Fatalf("skip=%v fork at %d: stats\n got %+v\nwant %+v", skip, c, *got, *want)
					}
					if !reflect.DeepEqual(dst.Mem.Words(), ref.Mem.Words()) {
						t.Fatalf("skip=%v fork at %d: final memory differs", skip, c)
					}
					if !reflect.DeepEqual(dst.Mem.DirtyPages(), ref.Mem.DirtyPages()) {
						t.Fatalf("skip=%v fork at %d: dirty pages differ from a full run's", skip, c)
					}
				}
			}
		})
	}
}

// TestForkRejectsOtherLaunch: a fork must continue the same launch on
// an identically configured device.
func TestForkRejectsOtherLaunch(t *testing.T) {
	b, err := bench.ByName("Triad")
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec()
	src, _ := gpu.NewDevice(gpu.GTX480(), spec.MemBytes)
	dst, _ := gpu.NewDevice(gpu.GTX480(), spec.MemBytes)
	l := &gpu.Launch{Prog: spec.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}
	if err := dst.Fork(src, l, nil); err == nil {
		t.Fatal("fork from a device with no launch succeeded")
	}
	if err := src.Start(l, nil); err != nil {
		t.Fatal(err)
	}
	other := *l
	other.Grid.X++
	if err := dst.Fork(src, &other, nil); err == nil {
		t.Fatal("fork onto a different grid succeeded")
	}
	small, _ := gpu.NewDevice(gpu.GTX480(), spec.MemBytes/2)
	if err := small.Fork(src, l, nil); err == nil {
		t.Fatal("fork onto a smaller memory succeeded")
	}
}
