package flame

import "flame/internal/gpu"

// Fork makes c a copy of src, the controller of the launch that device
// to was just forked from (gpu.Device.Fork from device from): the RBQ
// conveyors, the RPT, verification clearances, pending and committed
// checkpoints, the atomic undo log, pending collective sections,
// false-positive progress and Stats. Every warp and block pointer is
// moved from its (SM, slot) on from to the same (SM, slot) on to, and
// undo entries are re-pointed at to's memory and shared scratchpads.
// Recovery snapshots are shared: nothing mutates one after it is taken.
//
// The injector is not copied; the caller attaches the forked trial's
// own. src is only read, so one controller can seed many forks.
func (c *Controller) Fork(src *Controller, from, to *gpu.Device) {
	warps := map[*gpu.Warp]*gpu.Warp{}
	blocks := map[*gpu.BlockState]*gpu.BlockState{}
	shared := map[*uint32][]uint32{}
	for i, sm := range from.SMs {
		tsm := to.SMs[i]
		for j, w := range sm.Warps {
			if w != nil {
				warps[w] = tsm.Warps[j]
			}
		}
		for j, b := range sm.Blocks {
			blocks[b] = tsm.Blocks[j]
			if len(b.Shared) > 0 {
				shared[&b.Shared[0]] = tsm.Blocks[j].Shared
			}
		}
	}
	warp := func(w *gpu.Warp) *gpu.Warp {
		t, ok := warps[w]
		if !ok {
			panic("flame: controller fork: state names a warp that is not resident")
		}
		return t
	}

	c.Mode = src.Mode
	c.Stats = src.Stats
	c.FalsePositives, c.nextFP = src.FalsePositives, src.nextFP
	c.rbqs = make([]*RBQ, len(src.rbqs))
	for i, q := range src.rbqs {
		if q == nil {
			continue
		}
		nq := &RBQ{Depth: q.Depth, lastReady: q.lastReady, lastPush: q.lastPush,
			entries: make([]rbqEntry, len(q.entries))}
		for k, e := range q.entries {
			nq.entries[k] = rbqEntry{w: warp(e.w), snap: e.snap, readyAt: e.readyAt}
		}
		c.rbqs[i] = nq
	}
	c.rpt = make(map[*gpu.Warp]Snapshot, len(src.rpt))
	for w, s := range src.rpt {
		c.rpt[warp(w)] = s
	}
	c.cleared = make(map[*gpu.Warp]int, len(src.cleared))
	for w, pc := range src.cleared {
		c.cleared[warp(w)] = pc
	}
	c.pendCkpt = forkCkpts(src.pendCkpt, warp)
	c.commCkpt = forkCkpts(src.commCkpt, warp)
	c.undo = make([]undoEntry, len(src.undo))
	for i, e := range src.undo {
		e.w = warp(e.w)
		if e.mem != nil {
			e.mem = to.Mem
		}
		if len(e.shared) > 0 {
			sh, ok := shared[&e.shared[0]]
			if !ok {
				panic("flame: controller fork: an undo entry names a scratchpad that is not resident")
			}
			e.shared = sh
		}
		c.undo[i] = e
	}
	c.sectionPending = make(map[*gpu.BlockState]map[*gpu.Warp]Snapshot, len(src.sectionPending))
	for b, pend := range src.sectionPending {
		tb, ok := blocks[b]
		if !ok {
			panic("flame: controller fork: a pending section names a block that is not resident")
		}
		np := make(map[*gpu.Warp]Snapshot, len(pend))
		for w, s := range pend {
			np[warp(w)] = s
		}
		c.sectionPending[tb] = np
	}
}

func forkCkpts(src map[*gpu.Warp]map[ckKey]uint32, warp func(*gpu.Warp) *gpu.Warp) map[*gpu.Warp]map[ckKey]uint32 {
	out := make(map[*gpu.Warp]map[ckKey]uint32, len(src))
	for w, vals := range src {
		nv := make(map[ckKey]uint32, len(vals))
		for k, v := range vals {
			nv[k] = v
		}
		out[warp(w)] = nv
	}
	return out
}
