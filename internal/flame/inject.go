package flame

import (
	"fmt"
	"math/bits"
	"math/rand"

	"flame/internal/gpu"
	"flame/internal/isa"
)

// FaultModel selects which microarchitectural state an injector may
// corrupt.
type FaultModel uint8

const (
	// DataSlice strikes only the data slice — destination registers and
	// store data that idempotent re-execution provably repairs. This is
	// the paper's fault model (Section III-B): register files, caches and
	// memory are ECC-protected and AGUs are hardened, so faults manifest
	// as corrupted values, never as wrong addresses or control.
	DataSlice FaultModel = iota
	// FullSite additionally strikes the address/control slice: registers
	// that transitively feed memory-address bases or comparisons. The
	// paper's scheme does not claim coverage there (a corrupted address
	// or predicate input can commit a stray store that re-execution never
	// overwrites, or livelock the kernel); injecting into the full site
	// set lets a campaign MEASURE the effective-coverage boundary instead
	// of assuming it.
	FullSite
)

// String returns the model's campaign-flag spelling.
func (m FaultModel) String() string {
	switch m {
	case DataSlice:
		return "data"
	case FullSite:
		return "full"
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// ParseFaultModel parses a campaign-flag spelling ("data" or "full").
func ParseFaultModel(s string) (FaultModel, error) {
	switch s {
	case "data", "data-slice":
		return DataSlice, nil
	case "full", "full-site":
		return FullSite, nil
	}
	return DataSlice, fmt.Errorf("flame: unknown fault model %q (want data or full)", s)
}

// Strike records one particle strike of an injection trial.
type Strike struct {
	// ArmCycle is the cycle at or after which the strike corrupts the
	// next eligible executed instruction.
	ArmCycle int64
	// Injected is set once the strike corrupted state.
	Injected bool
	// Detected is set once the sensors reported the strike.
	Detected bool
	// InjectedAt / DetectedAt are the corruption and detection cycles.
	InjectedAt, DetectedAt int64
	// Reg is the corrupted destination register, or isa.NoReg for
	// store-data corruptions.
	Reg isa.Reg
	// Excluded reports whether the corrupted site lies in the
	// address/control slice (only reachable under FullSite).
	Excluded bool
	// SM, Warp and Lane identify the struck execution site (valid once
	// Injected): the SM index, the warp's slot ID on that SM, and the
	// lane whose register or store data was corrupted. Propagation
	// tracers key their taint state on (SM, Warp) to follow the
	// corrupted value through subsequent instructions.
	SM, Warp, Lane int
	// Description says what was corrupted, for logs.
	Description string

	detectAt int64
}

// Injector models particle strikes corrupting the output of in-flight
// instructions, and the acoustic sensors detecting each within WCDL
// cycles. A single-strike injector (NewInjector) reproduces the paper's
// per-run fault model; campaign trials may arm several strikes and widen
// the target set with the FullSite model.
type Injector struct {
	// MaxDelay bounds the sensor detection delay in cycles (uniform in
	// [1, MaxDelay]); it must not exceed the WCDL. Zero means immediate
	// detection (duplication/tail-DMR schemes).
	MaxDelay int
	// Model selects the injectable site set.
	Model FaultModel
	// Rand drives lane/bit/delay choices.
	Rand *rand.Rand

	// Strikes are the armed strikes, sorted by ArmCycle; strike k+1 only
	// arms after strike k fired.
	Strikes []Strike

	// Aggregate results, kept for single-strike callers:
	// Injected reports that at least one strike corrupted state, Detected
	// that every fired strike was detected. InjectedAt is the first
	// corruption cycle, DetectedAt the latest detection cycle, and
	// Description describes the first strike.
	Injected    bool
	Detected    bool
	InjectedAt  int64
	DetectedAt  int64
	Description string
	// Detections counts detected strikes.
	Detections int

	next int // index of the next unfired strike
	// excluded caches the set of registers outside the injectable data
	// slice (see addressControlSlice).
	excluded map[isa.Reg]bool
}

// addressControlSlice computes the registers that transitively feed a
// memory address base or a comparison (and through it, control flow).
// The paper's fault model hardens address generation (AGU + RF
// controller, Section IV) and discards wrong-path work via store
// buffering in the CPU predecessors; with immediately-committed GPU
// stores, a corrupted address or predicate input could commit a store
// that re-execution does not overwrite. The DataSlice model therefore
// injects only into the complement — the values idempotent re-execution
// provably repairs, which is the paper's effective coverage claim.
func addressControlSlice(p *isa.Program) map[isa.Reg]bool {
	s := map[isa.Reg]bool{}
	add := func(o isa.Operand) bool {
		if o.Kind == isa.OperReg && !s[o.Reg] {
			s[o.Reg] = true
			return true
		}
		return false
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op.IsMemory() {
			add(in.Src[0])
		}
		if in.Op == isa.OpSetp {
			add(in.Src[0])
			add(in.Src[1])
		}
	}
	backwardClose(p, s)
	return s
}

// AddressControlSlice exposes the injector's excluded-site set (the
// registers the DataSlice model refuses to strike) for pre-trial
// analysis: it is the excluded argument of StrikeSite and decides a
// strike's Excluded marking.
func AddressControlSlice(p *isa.Program) map[isa.Reg]bool {
	return addressControlSlice(p)
}

// StoreReachSlice computes the registers whose value can transitively
// influence anything a trial is classified by: memory contents, control
// flow, or timing. Seeds are every register operand of a memory
// operation (address base AND store/atomic data — unlike the
// address/control slice, which seeds addresses only) and both setp
// operands (predicates are a separate register class written only by
// setp, so seeding its general-register inputs covers every guard and
// selp consumer). The backward dataflow closure then pulls in
// everything that feeds a seed.
//
// A register OUTSIDE this slice is dead-before-store: flipping a bit in
// it can change other non-slice registers, but never a store address,
// store data, predicate, branch, or latency — so final global memory
// and the cycle count stay bit-identical to the golden run. This is the
// static certificate behind campaign trial pruning; note
// AddressControlSlice ⊆ StoreReachSlice by construction (same closure,
// superset of seeds).
func StoreReachSlice(p *isa.Program) map[isa.Reg]bool {
	s := map[isa.Reg]bool{}
	add := func(o isa.Operand) {
		if o.Kind == isa.OperReg {
			s[o.Reg] = true
		}
	}
	var uses [4]isa.Reg
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op.IsMemory() {
			for _, r := range in.Uses(uses[:0]) {
				s[r] = true
			}
		}
		if in.Op == isa.OpSetp {
			add(in.Src[0])
			add(in.Src[1])
		}
	}
	backwardClose(p, s)
	return s
}

// backwardClose extends s to a fixpoint under "an instruction defining
// a register in s puts every register it reads into s".
func backwardClose(p *isa.Program, s map[isa.Reg]bool) {
	for changed := true; changed; {
		changed = false
		for i := range p.Insts {
			in := &p.Insts[i]
			d := in.Defs()
			if d == isa.NoReg || !s[d] {
				continue
			}
			var uses [4]isa.Reg
			for _, r := range in.Uses(uses[:0]) {
				if !s[r] {
					s[r] = true
					changed = true
				}
			}
		}
	}
}

// NewInjector creates a single-strike data-slice injector armed at the
// given cycle (the paper's per-run fault model).
func NewInjector(armCycle int64, maxDelay int, seed int64) *Injector {
	return NewCampaignInjector([]int64{armCycle}, maxDelay, DataSlice, seed)
}

// NewCampaignInjector creates an injector arming one strike per entry of
// arms (each fires at the first eligible instruction at or after its
// cycle, in order) under the given fault model.
func NewCampaignInjector(arms []int64, maxDelay int, model FaultModel, seed int64) *Injector {
	inj := &Injector{
		MaxDelay: maxDelay,
		Model:    model,
		Rand:     rand.New(rand.NewSource(seed)),
		Strikes:  make([]Strike, len(arms)),
	}
	for i, a := range arms {
		inj.Strikes[i] = Strike{ArmCycle: a, Reg: isa.NoReg}
	}
	return inj
}

// ArmCycle returns the first strike's arm cycle (single-strike callers).
func (inj *Injector) ArmCycle() int64 {
	if len(inj.Strikes) == 0 {
		return 0
	}
	return inj.Strikes[0].ArmCycle
}

// Observe is called after each executed instruction (from the
// controller's OnExecuted hook, or directly for unprotected campaigns);
// it corrupts the first eligible instruction once a strike is armed.
func (inj *Injector) Observe(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
	if inj.next >= len(inj.Strikes) {
		return
	}
	s := &inj.Strikes[inj.next]
	if d.Cyc < s.ArmCycle {
		return
	}
	if inj.excluded == nil {
		inj.excluded = addressControlSlice(d.Kernel())
	}
	in := &d.Kernel().Insts[pc]
	lane, bit := StrikeDraw(StrikeLanes(w), inj.Rand)
	if lane < 0 {
		return
	}
	var addr uint32
	switch StrikeSite(in, inj.Model, inj.excluded) {
	case RegisterSite:
		r := in.Defs()
		w.Regs[lane][r] ^= bit
		s.Reg = r
		s.Excluded = inj.excluded[r]
	case StoreDataSite:
		addr = sm.LaneAddress(w, lane, in)
		v, err := d.Mem.Load(addr)
		if err != nil {
			return
		}
		if d.Mem.Store(addr, v^bit) != nil {
			return
		}
	default:
		return // not a corruptible instruction; stay armed
	}
	s.SM, s.Warp, s.Lane = sm.ID, w.ID, lane
	s.Injected = true
	s.InjectedAt = d.Cyc
	s.Description = DescribeStrike(s, bit, addr, pc, in)
	s.detectAt = d.Cyc + SensorDelay(inj.MaxDelay, inj.Rand)
	if !inj.Injected {
		inj.InjectedAt = d.Cyc
		inj.Description = s.Description
	}
	inj.Injected = true
	inj.Detected = false // pending detection outstanding
	inj.next++
}

// DescribeStrike formats a fired strike's Description from its site
// (InjectedAt, Reg, SM, Warp, Lane) and the flipped bit: a register
// strike names the register and the executed instruction pc (in); a
// store-data strike (Reg == isa.NoReg) names the store address addr.
// Observe and the campaign pruner both call it, so a pruned trial's
// description is the one simulation would have written.
func DescribeStrike(s *Strike, bit, addr uint32, pc int, in *isa.Inst) string {
	if s.Reg == isa.NoReg {
		return fmt.Sprintf("cycle %d: flipped bit %#x of store data at %#x (lane %d, warp %d, SM %d)",
			s.InjectedAt, bit, addr, s.Lane, s.Warp, s.SM)
	}
	return fmt.Sprintf("cycle %d: flipped bit %#x of %s (lane %d, warp %d, SM %d, inst %d: %s)",
		s.InjectedAt, bit, s.Reg, s.Lane, s.Warp, s.SM, pc, in.String())
}

// SiteKind says what a strike on an executed instruction corrupts.
type SiteKind uint8

const (
	// NoSite: the instruction is not corruptible; an armed strike stays
	// armed through it.
	NoSite SiteKind = iota
	// RegisterSite: the struck lane's copy of the destination register.
	RegisterSite
	// StoreDataSite: the data the struck lane's global store writes.
	StoreDataSite
)

// StrikeSite is the injector's eligibility rule, shared by Observe and
// every pre-trial analysis of the golden schedule (pruning, strata,
// census). A strike fires on an instruction that defines a general
// register — unless it is a SwapCodes replica, or, under DataSlice, the
// register is in excluded (the program's AddressControlSlice) — or on a
// global store's data. Eligibility does not depend on the injector's
// random draws.
func StrikeSite(in *isa.Inst, model FaultModel, excluded map[isa.Reg]bool) SiteKind {
	if d := in.Defs(); d != isa.NoReg && in.Origin != isa.OrigDup &&
		(model == FullSite || !excluded[d]) {
		return RegisterSite
	}
	if in.Op == isa.OpSt && in.Space == isa.SpaceGlobal {
		return StoreDataSite
	}
	return NoSite
}

// StrikeLanes returns the lanes a strike on warp w's just-executed
// instruction can hit: the lanes that executed it and hold register
// files. A particle corrupts the output of an executing lane; striking
// a diverged or predicated-off lane would fabricate state no
// re-execution repairs — corruption the fault model cannot produce. The
// executing lane set is the warp's LastExecMask (captured at
// execution), NOT its ActiveMask: when the instruction immediately
// precedes a reconvergence point the stack has already popped by
// OnExecuted time, and the widened mask would let a strike land on a
// lane whose address/data registers were never computed on this path.
func StrikeLanes(w *gpu.Warp) uint32 {
	exec := w.LastExecMask()
	var lanes uint32
	for l := 0; l < len(w.Regs); l++ {
		if exec&(1<<l) != 0 && w.Regs[l] != nil {
			lanes |= 1 << l
		}
	}
	return lanes
}

// StrikeDraw makes a strike's random choices on one event: the struck
// lane, uniform over the set bits of lanes (StrikeLanes), then the
// flipped bit. With no lane it draws nothing and returns lane -1 — the
// strike stays armed. Eligibility (StrikeSite) is decided after the
// draw, so an ineligible event still consumes both draws.
func StrikeDraw(lanes uint32, rng *rand.Rand) (lane int, bit uint32) {
	n := bits.OnesCount32(lanes)
	if n == 0 {
		return -1, 0
	}
	for k := rng.Intn(n); k > 0; k-- {
		lanes &= lanes - 1 // drop the lowest set lane
	}
	return bits.TrailingZeros32(lanes), uint32(1) << uint(rng.Intn(32))
}

// SensorDelay draws a fired strike's detection delay: uniform in
// [1, maxDelay], or 0 (immediate, no draw) when maxDelay <= 0.
func SensorDelay(maxDelay int, rng *rand.Rand) int64 {
	if maxDelay <= 0 {
		return 0
	}
	return 1 + int64(rng.Intn(maxDelay))
}

// FiredStrikes counts the strikes that corrupted state.
func (inj *Injector) FiredStrikes() int { return inj.next }

// ExcludedStrikes counts fired strikes that landed in the
// address/control slice (possible only under FullSite).
func (inj *Injector) ExcludedStrikes() int {
	n := 0
	for i := range inj.Strikes {
		if inj.Strikes[i].Injected && inj.Strikes[i].Excluded {
			n++
		}
	}
	return n
}

// NextDetection returns the earliest cycle a fired-but-undetected strike
// reports, or -1 if none is pending. Unfired strikes need an executed
// instruction to inject, which cannot happen while every scheduler is
// stalled — so this bound is exact for fast-forwarding.
func (inj *Injector) NextDetection() int64 {
	due := int64(-1)
	for i := range inj.Strikes {
		s := &inj.Strikes[i]
		if !s.Injected || s.Detected {
			continue
		}
		if due < 0 || s.detectAt < due {
			due = s.detectAt
		}
	}
	return due
}

// DetectionDue reports whether the sensors report one or more pending
// strikes this cycle and marks them detected. The caller performs the
// recovery (one recovery covers every strike reported this cycle).
func (inj *Injector) DetectionDue(cyc int64) bool {
	due := false
	undetected := 0
	for i := range inj.Strikes {
		s := &inj.Strikes[i]
		if !s.Injected || s.Detected {
			continue
		}
		if cyc >= s.detectAt {
			s.Detected = true
			s.DetectedAt = cyc
			inj.DetectedAt = cyc
			inj.Detections++
			due = true
		} else {
			undetected++
		}
	}
	if due && undetected == 0 {
		inj.Detected = true
	}
	return due
}
