package gpu

import (
	"fmt"
	"math/bits"
	"slices"
)

// Fork continues src's in-flight launch on d: it copies everything the
// rest of the launch reads — warps (registers, predicates, scoreboard,
// SIMT stack, flags, local memory), blocks (shared memory, barrier
// generation, warp slots), scheduler state, L1/L2 tags, MSHRs, unit and
// bandwidth reservations, the clock, the stats and the dispatch
// counters — and the global-memory pages src has written, so that
// Finish on d produces exactly what Finish on src would have. src must
// be paused at a cycle boundary (Start or Advance, not mid-Run); it is
// only read.
//
// l replaces src's launch and must describe the same kernel, grid,
// block and parameters; its MaxCycles and Stop are d's own. hooks are
// attached from the fork on: no OnWarpDispatch runs for the copied
// warps, so a hook that keeps per-warp state must be forked alongside
// (flame.Controller.Fork).
//
// d's memory must hold the image src's launch started from wherever
// src's dirty bitmap is clear: Fork copies src's dirty pages over it and
// marks them dirty, so d's bitmap ends as the set a run started on d
// itself would have written. Warp and block objects come from d's own
// pools.
func (d *Device) Fork(src *Device, l *Launch, hooks *Hooks) error {
	sl := src.launch
	switch {
	case sl == nil:
		return fmt.Errorf("gpu: fork: source device has no launch")
	case l.Prog != sl.Prog || l.Grid != sl.Grid || l.Block != sl.Block || !slices.Equal(l.Params, sl.Params):
		return fmt.Errorf("gpu: fork: launch of %q differs from the source launch", l.Prog.Name)
	case d.Cfg != src.Cfg:
		return fmt.Errorf("gpu: fork: device configurations differ")
	case d.Mem.SizeBytes() != src.Mem.SizeBytes():
		return fmt.Errorf("gpu: fork: memory sizes differ (%d vs %d bytes)", d.Mem.SizeBytes(), src.Mem.SizeBytes())
	}
	d.launch = l
	d.kern = src.kern
	d.setHooks(hooks)
	d.Stats = src.Stats
	d.Cyc = src.Cyc
	d.nextBlock = src.nextBlock
	d.blocksDone = src.blocksDone
	d.ageSeq = src.ageSeq
	d.blocksPerSM = src.blocksPerSM
	d.l2.copyFrom(src.l2)
	nregs := l.Prog.NumRegs
	localWords := (l.Prog.LocalBytes + 3) / 4
	for i, sm := range d.SMs {
		sm.forkFrom(src.SMs[i], nregs, localWords)
	}
	d.Mem.copyDirty(src.Mem)
	return nil
}

// recycle returns the SM's resident warps and blocks (and their
// register-file backing) to its pools and empties it.
func (sm *SM) recycle() {
	for _, w := range sm.Warps {
		if w != nil {
			sm.warpPool = append(sm.warpPool, w)
		}
	}
	sm.blockPool = append(sm.blockPool, sm.Blocks...)
	sm.Warps = sm.Warps[:0]
	sm.Blocks = sm.Blocks[:0]
	sm.liveWarps = 0
}

// forkFrom makes the SM a copy of src's (see Device.Fork).
func (sm *SM) forkFrom(src *SM, nregs, localWords int) {
	sm.recycle()
	for _, sb := range src.Blocks {
		b := sm.getBlock()
		b.Slot, b.GlobalID, b.BarGen, b.liveWarps = sb.Slot, sb.GlobalID, sb.BarGen, sb.liveWarps
		b.Shared = append(b.Shared[:0], sb.Shared...)
		b.WarpIdx = append(b.WarpIdx[:0], sb.WarpIdx...)
		sm.Blocks = append(sm.Blocks, b)
	}
	for _, sw := range src.Warps {
		var w *Warp
		if sw != nil {
			w = sm.getWarp()
			w.copyFrom(sw, nregs, localWords)
		}
		sm.Warps = append(sm.Warps, w)
	}
	sm.liveWarps = src.liveWarps
	sm.lsuBusyUntil = src.lsuBusyUntil
	sm.sfuBusyUntil = src.sfuBusyUntil
	sm.dramFree = src.dramFree
	sm.l2Free = src.l2Free
	sm.mshrRelease = append(sm.mshrRelease[:0], src.mshrRelease...)
	sm.l1.copyFrom(src.l1)
	for i, s := range src.scheds {
		sm.scheds[i] = s.clone()
	}
}

// copyFrom makes w a copy of s, reusing w's backing slices. Per-lane
// register and local-memory views are carved from the flat backing
// exactly as placeBlock carves them (nil for lanes without a thread).
// The scoreboard memo is dropped; it is recomputed on demand.
func (w *Warp) copyFrom(s *Warp, nregs, localWords int) {
	w.ID, w.BlockSlot, w.GlobalBlock, w.WarpInBlock = s.ID, s.BlockSlot, s.GlobalBlock, s.WarpInBlock
	w.AliveMask = s.AliveMask
	w.Stack = append(w.Stack[:0], s.Stack...)
	w.Preds = append(w.Preds[:0], s.Preds...)
	w.regReady = append(w.regReady[:0], s.regReady...)
	w.predReady = s.predReady
	w.AtBarrier, w.BarGen, w.Suspended, w.Finished = s.AtBarrier, s.BarGen, s.Suspended, s.Finished
	w.lastExec, w.LastIssue, w.Age = s.lastExec, s.LastIssue, s.Age
	w.laneThread = append(w.laneThread[:0], s.laneThread...)
	w.regData = append(w.regData[:0], s.regData...)
	w.localData = append(w.localData[:0], s.localData...)
	w.Regs = resizeU32Slices(w.Regs, len(s.Regs))
	w.local = resizeU32Slices(w.local, len(s.local))
	for lane := range s.Regs {
		if s.Regs[lane] != nil {
			w.Regs[lane] = w.regData[lane*nregs : (lane+1)*nregs : (lane+1)*nregs]
		}
		if s.local[lane] != nil {
			w.local[lane] = w.localData[lane*localWords : (lane+1)*localWords : (lane+1)*localWords]
		}
	}
	w.invalidateDeps()
}

// copyFrom makes c a copy of src (same geometry).
func (c *cacheModel) copyFrom(src *cacheModel) {
	for s := range c.tags {
		copy(c.tags[s], src.tags[s])
		copy(c.tick[s], src.tick[s])
	}
	c.now = src.now
}

// copyDirty copies every page dirty in src into m and marks it dirty in
// m.
func (m *GlobalMem) copyDirty(src *GlobalMem) {
	for wi, bm := range src.dirty {
		m.dirty[wi] |= bm
		for bm != 0 {
			b := bits.TrailingZeros64(bm)
			bm &^= 1 << uint(b)
			start := (wi*64 + b) * PageWords
			end := start + PageWords
			if end > len(m.words) {
				end = len(m.words)
			}
			copy(m.words[start:end], src.words[start:end])
		}
	}
}
