// Trial pruning: pre-classify injection trials whose armed strike
// provably cannot change final memory, control flow, timing, or the
// detection outcome, without running the simulator. The simulator is
// deterministic, so a trial's pre-injection execution IS the golden
// schedule: GoldenRun records the main launch's per-instruction event
// stream (under the scheme's own controller hooks, so RBQ stalls and
// boundary verification shape it exactly as a trial would see it), and
// a cheap walker runs the injector's own strike oracle — including its
// lane, bit, and sensor-delay RNG draws — against that schedule to
// decide, for each would-be strike, whether the corrupted register is
// dead (statically outside flame.StoreReachSlice, or dynamically never
// read again by the struck lane) AND whether its sensor report escapes
// the main launch. Trials where every fired strike is dead and
// undetected are Masked with golden-identical results; trials whose
// strikes never fire are NoInjection. Everything else is simulated.
//
// Detecting (runtime-controller) schemes are handled by a static
// detection-outcome model rather than a gate. Detection is
// value-independent: Controller.onCycle calls Injector.DetectionDue at
// the end of every processed cycle of the main launch (and OnAdvance
// bounds cycle skips to NextDetection, so a due detection is never
// jumped over), while Steps never see the injector (the engine attaches
// it to the main launch only). A strike fired at cycle c with sensor
// delay delta therefore recovers iff c+delta <= the main launch's last
// processed cycle — equivalently c+delta < mainCycles, the launch's
// cycle count — and a dead strike whose report comes due after the main
// launch retired is Masked with the golden's timing, bit for bit.
// Anything detected in-window re-executes, so those trials simulate.
//
// Remaining soundness gates (any failure disables pruning for the
// benchmark, and the campaign falls back to full simulation):
//
//   - Every program in the workload (main kernel and Steps) must be
//     definitely-assigned: liveness at the entry block is empty, so no
//     block or later launch reads a register it did not first write.
//     This is what keeps a dead-corrupted register from leaking across
//     block boundaries on recycled warp register files — and equally
//     what makes SKIPPING a trial safe for the next trial on a pooled
//     engine (the register garbage a simulated trial would have left
//     behind is unobservable either way).
//   - The recorded schedule must fit the event cap (memory guard).
//
// Per-trial, PruneTrial additionally refuses trials with extra hooks
// attached (observers could see the skipped execution).
package core

import (
	"fmt"
	"math/rand"

	"flame/internal/analysis"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/kernel"
)

// schedEvent is one executed instruction of the golden main-kernel
// launch, as the injector's Observe hook would have seen it.
type schedEvent struct {
	cyc  int64
	mask uint32 // flame.StrikeLanes of the executing warp
	pc   int32
	warp int32 // warp slot within its SM (stable, printed in descriptions)
	sm   int32
}

// DefaultPruneEventCap bounds the schedule GoldenRun records (events
// are 24 bytes; the cap keeps a benchmark's schedule near 100 MB). A
// golden whose main launch executes more instructions keeps no
// schedule: pruning is disabled for it and strata enumeration fails.
const DefaultPruneEventCap = 4 << 20

// scheduleRecorder is GoldenRun's schedule buffer. Events go into
// chunks that never move once allocated — growing one flat slice by
// append re-copied the whole schedule at every growth step, most of the
// recorder's cost — and the chunks are joined once, into an exact-size
// slice, when the main launch ends.
type scheduleRecorder struct {
	chunks [][]schedEvent
	n      int
	full   bool // more than DefaultPruneEventCap events: nothing kept
}

// Chunk sizes double from firstSchedChunk to maxSchedChunk events, so a
// short schedule allocates little and a long one few chunks.
const (
	firstSchedChunk = 1 << 12
	maxSchedChunk   = 1 << 18
)

// hooks returns the recording hook GoldenRun combines after the
// scheme's own controller hooks on the main launch only — where trials
// attach the injector — so RBQ descheduling and boundary verification
// shape the recorded schedule exactly as a trial's injector observes
// it.
func (r *scheduleRecorder) hooks() *gpu.Hooks {
	return &gpu.Hooks{OnExecuted: func(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
		if r.full {
			return
		}
		if r.n >= DefaultPruneEventCap {
			r.chunks, r.full = nil, true
			return
		}
		last := len(r.chunks) - 1
		if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
			size := maxSchedChunk
			if len(r.chunks) < 6 {
				size = firstSchedChunk << len(r.chunks)
			}
			r.chunks = append(r.chunks, make([]schedEvent, 0, size))
			last++
		}
		r.chunks[last] = append(r.chunks[last], schedEvent{
			cyc: d.Cyc, mask: flame.StrikeLanes(w), pc: int32(pc),
			warp: int32(w.ID), sm: int32(sm.ID),
		})
		r.n++
	}}
}

// events joins the recorded chunks (nil and true when the schedule
// outgrew the cap).
func (r *scheduleRecorder) events() ([]schedEvent, bool) {
	if r.full {
		return nil, true
	}
	out := make([]schedEvent, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out, false
}

// recordedSchedule returns the golden schedule, or an error when it has
// more than eventCap events (eventCap <= 0 selects, and values above it
// are bounded by, DefaultPruneEventCap).
func (g *Golden) recordedSchedule(eventCap int) ([]schedEvent, error) {
	if eventCap <= 0 || eventCap > DefaultPruneEventCap {
		eventCap = DefaultPruneEventCap
	}
	if g.scheduleFull || len(g.schedule) > eventCap {
		return nil, fmt.Errorf("golden schedule exceeds %d events", eventCap)
	}
	return g.schedule, nil
}

// PruneIndex is the per-benchmark pruning oracle: the golden schedule,
// its per-event vulnerable-lane masks, and the dataflow slices.
type PruneIndex struct {
	events []schedEvent // the golden's schedule, shared read-only
	// vuln[i] is the lane mask of event i's destination-register copies
	// that some later instruction of the same warp slot reads before an
	// overwriting def. Registers are lane-private (the ISA has no
	// cross-lane reads), so a strike on a lane outside vuln[i] corrupts
	// a value that lane never observes again. Zero when event i defines
	// nothing.
	vuln       []uint32
	storeReach map[isa.Reg]bool
	acl        map[isa.Reg]bool
	maxDelay   int
	// mainCycles is the golden main launch's cycle count; its last
	// processed cycle is mainCycles-1, the final DetectionDue probe.
	mainCycles int64
	// detecting marks schemes whose controller turns an in-window
	// sensor report into a recovery (strikes must escape the main
	// launch to stay prunable).
	detecting bool
	disabled  string // non-empty: why pruning is off for this benchmark
}

// Disabled returns the reason pruning is unavailable for this
// benchmark, or "" when the index is live.
func (px *PruneIndex) Disabled() string { return px.disabled }

// Events returns the recorded golden schedule length (0 when disabled).
func (px *PruneIndex) Events() int { return len(px.events) }

func warpKey(smID, warpID int32) uint64 {
	return uint64(uint32(smID))<<32 | uint64(uint32(warpID))
}

// BuildPruneIndex prepares the pruning oracle from the schedule
// GoldenRun recorded; it simulates nothing, and the architecture and
// spec arguments are unused (the golden already reflects both).
// eventCap <= 0 selects DefaultPruneEventCap. A disabled index is still
// returned (never nil): PruneTrial on it refuses every trial and
// Disabled says why.
func BuildPruneIndex(_ gpu.Config, _ *KernelSpec, g *Golden, eventCap int) *PruneIndex {
	px := &PruneIndex{maxDelay: g.MaxDelay}
	progs := []*isa.Program{g.Comp.Prog}
	for _, sc := range g.StepComps {
		progs = append(progs, sc.Prog)
	}
	for i, p := range progs {
		lv := analysis.ComputeLiveness(kernel.Build(p))
		if lv.LiveIn[0].Count() != 0 {
			px.disabled = fmt.Sprintf("program %d reads registers it did not write (entry liveness %d)", i, lv.LiveIn[0].Count())
			return px
		}
	}
	events, err := g.recordedSchedule(eventCap)
	if err != nil {
		px.disabled = err.Error()
		return px
	}
	prog := g.Comp.Prog
	px.events, px.mainCycles = events, g.mainCycles
	px.detecting = g.Comp.Controller() != nil
	px.storeReach = flame.StoreReachSlice(prog)
	px.acl = flame.AddressControlSlice(prog)
	px.buildVuln(prog)
	return px
}

// buildVuln computes the per-event vulnerable-lane masks with one
// backward walk over the recorded schedule, maintaining per warp slot a
// future-read lane mask per register (which lanes will read the
// register before an overwriting def). Within one instruction reads
// precede the write, so walking backward the def is killed first and
// the uses are added after — a def that reads itself (add r0, r0, 1)
// still counts as a future read of the previous value. Later launches
// need no terms: the definite-assignment gate already proved no Step
// reads a register it did not first write.
func (px *PruneIndex) buildVuln(prog *isa.Program) {
	px.vuln = make([]uint32, len(px.events))
	future := map[uint64][]uint32{}
	var uses [4]isa.Reg
	for evi := len(px.events) - 1; evi >= 0; evi-- {
		ev := &px.events[evi]
		in := &prog.Insts[ev.pc]
		key := warpKey(ev.sm, ev.warp)
		fr := future[key]
		if fr == nil {
			fr = make([]uint32, prog.NumRegs)
			future[key] = fr
		}
		if d := in.Defs(); d != isa.NoReg {
			px.vuln[evi] = ev.mask & fr[d]
			// Unlike the static solver, a predicated def kills here:
			// ev.mask is lastExec (active ∧ guard), so every lane in it
			// really executed the write.
			fr[d] &^= ev.mask
		}
		for _, r := range in.Uses(uses[:0]) {
			fr[r] |= ev.mask
		}
	}
}

// PruneTrial decides a trial without simulation when every armed strike
// either never fires or fires into a provably dead register with a
// sensor report that provably escapes the main launch. It walks the
// golden schedule with the injector's own strike oracle
// (flame.StrikeDraw, flame.StrikeSite, flame.SensorDelay) on an RNG
// seeded like the injector's, so a pruned TrialResult is bit-identical
// (every field, including the Description) to what Engine.RunTrial
// would have produced. The second return is false when the trial must
// be simulated.
func (px *PruneIndex) PruneTrial(g *Golden, ts TrialSpec) (*TrialResult, bool) {
	if px == nil || px.disabled != "" || ts.Hooks != nil {
		return nil, false
	}
	prog := g.Comp.Prog
	rng := rand.New(rand.NewSource(ts.Seed))
	tr := &TrialResult{Cycles: g.Window}
	evi := 0
	for _, arm := range ts.Arms {
		fired := false
		for ; evi < len(px.events); evi++ {
			ev := &px.events[evi]
			if ev.cyc < arm {
				continue // Observe returns before any RNG draw
			}
			lane, bit := flame.StrikeDraw(ev.mask, rng)
			if lane < 0 {
				continue // no strike lane: stays armed, no draw
			}
			in := &prog.Insts[ev.pc]
			switch flame.StrikeSite(in, ts.Model, px.acl) {
			case flame.RegisterSite:
				// Prunable iff the corrupted value is dead — statically
				// outside the store-reach slice, or never read again by
				// the struck lane (uses at the firing event itself read
				// the pre-corruption value: Observe runs post-execute).
				d := in.Defs()
				if px.storeReach[d] && px.vuln[evi]&(1<<uint(lane)) != 0 {
					return nil, false
				}
				// Static detection-outcome model: the controller probes
				// DetectionDue on every processed cycle of the main
				// launch (last is mainCycles-1) and nowhere afterwards,
				// so a report due before that recovers (simulate) and a
				// later one provably escapes (the strike stays Masked).
				detectAt := ev.cyc + flame.SensorDelay(px.maxDelay, rng)
				if px.detecting && detectAt < px.mainCycles {
					return nil, false
				}
				tr.Strikes++
				if px.acl[d] {
					tr.ExcludedStrikes++
				}
				if tr.Strikes == 1 {
					tr.Description = flame.DescribeStrike(&flame.Strike{
						InjectedAt: ev.cyc, Reg: d, SM: int(ev.sm), Warp: int(ev.warp), Lane: lane,
					}, bit, 0, int(ev.pc), in)
				}
				fired = true
			case flame.StoreDataSite:
				// Store-data strike: corrupts memory directly; simulate.
				return nil, false
			default:
				continue // not corruptible; RNG consumed, stays armed
			}
			evi++ // the next strike starts at the next observed event
			break
		}
		if !fired {
			break // this strike never fires, so no later strike arms
		}
	}
	if tr.Strikes == 0 {
		tr.Outcome = OutcomeNoInjection
	} else {
		tr.Outcome = OutcomeMasked
	}
	return tr, true
}
