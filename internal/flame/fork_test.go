package flame

import (
	"reflect"
	"testing"

	"flame/internal/gpu"
	"flame/internal/isa"
)

// forkSrc is the reduction kernel with a global atomic up front: runs
// of it hold RBQ entries, extended-section verifications pending for
// the whole block, and atomic undo entries, often all at once.
const forkSrc = `
.shared 256
    mov r0, %tid.x
    shl r1, r0, 2
    mov r2, %ctaid.x
    mov r3, %ntid.x
    mad r4, r2, r3, r0
    shl r5, r4, 2
    ld.param r6, [0]       // &in
    add r7, r6, r5
    ld.global r8, [r7]
    ld.param r19, [8]      // &count
    mov r20, 1
    atom.global.add r21, [r19], r20
    st.shared [r1], r8
    bar.sync
    mov r9, 32
RED:
    setp.lt p0, r0, r9
@!p0 bra SKIP
    shl r10, r9, 2
    add r11, r1, r10
    ld.shared r12, [r11]
    ld.shared r13, [r1]
    add r14, r12, r13
    st.shared [r1], r14
SKIP:
    bar.sync
    shr r9, r9, 1
    setp.gt p1, r9, 0
@p1 bra RED
    setp.eq p2, r0, 0
@!p2 bra DONE
    ld.shared r15, [r1]
    ld.param r16, [4]      // &out
    shl r17, r2, 2
    add r18, r16, r17
    st.global [r18], r15
DONE:
    exit
`

// TestControllerFork: a device paused at cycle c and its controller,
// forked together, finish exactly as the source does when it simply
// continues — and as an uninterrupted run — with a strike armed at c
// (so recoveries replay from forked RPT entries and revert forked undo
// entries). The sweep covers fork points with a non-empty RBQ, a
// pending collective section and a non-empty undo log.
func TestControllerFork(t *testing.T) {
	p, res, _ := compile(t, forkSrc, schemeRename, true)
	if len(res.Sections) == 0 {
		t.Fatal("expected an extended section")
	}
	mode := Mode{WCDL: 20, UseRBQ: true, Sections: res.Sections}
	launch := func() *gpu.Launch {
		return &gpu.Launch{Prog: p, Grid: isa.Dim3{X: 3}, Block: isa.Dim3{X: 64}, Params: []uint32{0, 1024, 2048}}
	}
	setup := func(mem []uint32) {
		for i := range mem {
			mem[i] = 0
		}
		for i := 0; i < 3*64; i++ {
			mem[i] = uint32(i)
		}
	}
	device := func() *gpu.Device {
		d := testDevice(t)
		setup(d.Mem.Words())
		return d
	}
	type outcome struct {
		Stats gpu.Stats
		Flame Stats
		Inj   Injector
		Mem   []uint32
		Dirty []uint64
	}
	finish := func(d *gpu.Device, c *Controller, st *gpu.Stats) outcome {
		inj := *c.Inj
		inj.Rand = nil
		return outcome{Stats: *st, Flame: c.Stats, Inj: inj,
			Mem: append([]uint32(nil), d.Mem.Words()[:1024]...), Dirty: append([]uint64(nil), d.Mem.DirtyPages()...)}
	}

	ref := device()
	c0 := NewController(mode)
	st, err := ref.Run(launch(), c0.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	window := st.Cycles
	var sawRBQ, sawSection, sawUndo, sawRecovery bool
	dst := device()
	for cyc := int64(0); cyc <= window; cyc += 3 {
		seed := cyc + 1
		// The reference: one uninterrupted run with the strike armed at cyc.
		ref := device()
		cr := NewController(mode)
		cr.Inj = NewInjector(cyc, 20, seed)
		st, err := ref.Run(launch(), cr.Hooks())
		if err != nil {
			t.Fatalf("cycle %d: reference: %v", cyc, err)
		}
		want := finish(ref, cr, st)

		src := device()
		cs := NewController(mode)
		cs.Inj = NewInjector(cyc, 20, seed) // inert before cyc
		if err := src.Start(launch(), cs.Hooks()); err != nil {
			t.Fatal(err)
		}
		if err := src.Advance(cyc); err != nil {
			t.Fatal(err)
		}
		for _, q := range cs.rbqs {
			sawRBQ = sawRBQ || (q != nil && q.Len() > 0)
		}
		sawSection = sawSection || len(cs.sectionPending) > 0
		undoAtFork := len(cs.undo) > 0
		sawUndo = sawUndo || undoAtFork

		setup(dst.Mem.Words())
		dst.Mem.ResetDirty()
		cd := NewController(mode)
		if err := dst.Fork(src, launch(), cd.Hooks()); err != nil {
			t.Fatal(err)
		}
		cd.Fork(cs, src, dst)
		cd.Inj = NewInjector(cyc, 20, seed)

		st, err = src.Finish()
		if err != nil {
			t.Fatalf("cycle %d: source: %v", cyc, err)
		}
		if got := finish(src, cs, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: the paused source diverged from an uninterrupted run:\n got %+v\nwant %+v", cyc, got, want)
		}
		st, err = dst.Finish()
		if err != nil {
			t.Fatalf("cycle %d: fork: %v", cyc, err)
		}
		if got := finish(dst, cd, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: the fork diverged from an uninterrupted run:\n got %+v\nwant %+v", cyc, got, want)
		}
		sawRecovery = sawRecovery || undoAtFork && want.Flame.UndoneAtomics > 0
	}
	if !sawRBQ || !sawSection || !sawUndo || !sawRecovery {
		t.Fatalf("sweep missed a case: rbq=%v section=%v undo=%v forked-undo-reverted=%v",
			sawRBQ, sawSection, sawUndo, sawRecovery)
	}
}
