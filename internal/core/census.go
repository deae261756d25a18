package core

import (
	"fmt"
	"math/bits"

	"flame/internal/flame"
)

// SiteCensus partitions the single-strike arm-cycle space [0, ArmSpan)
// of one benchmark by what the pruner can prove about each arm's firing
// event. It is the trace-ACE half of AVF prediction (internal/avf): the
// fault-free golden schedule decides which arm cycles strike provably
// un-ACE state — a register that is statically outside the store-reach
// slice, or whose struck lane never reads it again — and which strike
// state whose corruption can reach memory, control flow, or timing.
// Every arm cycle lands in exactly one bucket; register-site arms whose
// event has both dead and live lanes split fractionally by the
// injector's uniform lane draw, so the float buckets are exact
// expectations over that draw, not estimates.
type SiteCensus struct {
	// Span is the arm-cycle space size (Golden.ArmSpan()).
	Span int64 `json:"span"`
	// NoInjection counts arm cycles past the last corruptible event.
	NoInjection int64 `json:"no_injection"`
	// DeadStatic counts register-site arms whose destination is outside
	// flame.StoreReachSlice: the corrupted value can never feed a store,
	// address, predicate, branch, or latency — on any lane.
	DeadStatic int64 `json:"dead_static"`
	// DeadDynamic is the expected number of register-site arms whose
	// store-reach destination is never read again by the struck lane in
	// the golden schedule (the per-lane future-read refinement). An
	// event with v vulnerable lanes out of m executing contributes
	// (m-v)/m of its owned arms here and v/m to LiveRegister.
	DeadDynamic float64 `json:"dead_dynamic"`
	// LiveRegister is the expected number of register-site arms whose
	// struck lane reads the destination again: the trial outcome is
	// value-dependent (vulnerable).
	LiveRegister float64 `json:"live_register"`
	// StoreData counts global-store data arms (memory is corrupted
	// directly; always vulnerable).
	StoreData int64 `json:"store_data"`
}

// Injectable is the number of arm cycles that fire a strike.
func (c *SiteCensus) Injectable() int64 { return c.Span - c.NoInjection }

// CertainMasked is the expected number of arm cycles whose strike is
// provably masked absent detection (the un-ACE mass).
func (c *SiteCensus) CertainMasked() float64 { return float64(c.DeadStatic) + c.DeadDynamic }

// Vulnerable is the expected number of arm cycles whose outcome is
// value-dependent (the ACE upper bound).
func (c *SiteCensus) Vulnerable() float64 { return c.LiveRegister + float64(c.StoreData) }

// Census walks the recorded golden schedule once and partitions the
// arm-cycle space under the given fault model. Eligibility is the
// injector's own (flame.StrikeSite over non-empty strike-lane sets), and
// each corruptible event owns the arm cycles between the previous
// corruptible event and itself — so the CertainMasked mass counted here
// is exactly the probability mass PruneTrial would classify Masked
// (detection aside) under the injector's uniform lane draw. Fails when
// the index is disabled.
func (px *PruneIndex) Census(g *Golden, model flame.FaultModel) (*SiteCensus, error) {
	if px == nil || px.disabled != "" {
		return nil, fmt.Errorf("census: pruning disabled: %s", px.Disabled())
	}
	prog := g.Comp.Prog
	span := g.ArmSpan()
	c := &SiteCensus{Span: span}
	prev := int64(-1)
	for evi := range px.events {
		if prev >= span-1 {
			break
		}
		ev := &px.events[evi]
		lanes := bits.OnesCount32(ev.mask)
		if lanes == 0 {
			continue
		}
		in := &prog.Insts[ev.pc]
		site := flame.StrikeSite(in, model, px.acl)
		if site == flame.NoSite {
			continue
		}
		hi := ev.cyc
		if hi > span-1 {
			hi = span - 1
		}
		if hi <= prev {
			hi = prev // corruptible same-cycle events own zero arms
		}
		owned := hi - prev
		switch {
		case site == flame.StoreDataSite:
			c.StoreData += owned
		case !px.storeReach[in.Defs()]:
			c.DeadStatic += owned
		default:
			frac := float64(bits.OnesCount32(px.vuln[evi])) / float64(lanes)
			c.LiveRegister += float64(owned) * frac
			c.DeadDynamic += float64(owned) * (1 - frac)
		}
		prev = hi
	}
	c.NoInjection = span - 1 - prev
	return c, nil
}
