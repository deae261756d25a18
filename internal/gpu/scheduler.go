package gpu

// scheduler picks which ready warp a scheduler slot issues each cycle.
// Implementations receive the warps they manage (their partition) and the
// indices of currently-ready warps, and return the chosen index into the
// partition (or -1).
type scheduler interface {
	pick(warps []*Warp, ready []int, cycle int64) int
	// stalled informs the policy that its greedy/active warp stalled.
	reset()
	// clone returns an independent copy of the policy's state (a fork
	// continues another device's launch).
	clone() scheduler
}

func newScheduler(kind SchedulerKind, groupSize int) scheduler {
	switch kind {
	case LRR:
		return &lrrSched{}
	case OLD:
		return &oldSched{}
	case TwoLevel:
		return &twoLevelSched{group: groupSize}
	default:
		return &gtoSched{current: -1}
	}
}

// gtoSched: greedy-then-oldest. Keep issuing the same warp until it
// stalls; then switch to the oldest ready warp.
type gtoSched struct {
	current int // warp index currently run greedily, -1 if none
}

func (s *gtoSched) pick(warps []*Warp, ready []int, cycle int64) int {
	for _, i := range ready {
		if i == s.current {
			return i
		}
	}
	// Greedy warp stalled: pick the oldest ready warp.
	best := -1
	var bestAge int64
	for _, i := range ready {
		if best == -1 || warps[i].Age < bestAge {
			best, bestAge = i, warps[i].Age
		}
	}
	s.current = best
	return best
}

func (s *gtoSched) reset() { s.current = -1 }

func (s *gtoSched) clone() scheduler { c := *s; return &c }

// oldSched: always the oldest ready warp.
type oldSched struct{}

func (oldSched) pick(warps []*Warp, ready []int, cycle int64) int {
	best := -1
	var bestAge int64
	for _, i := range ready {
		if best == -1 || warps[i].Age < bestAge {
			best, bestAge = i, warps[i].Age
		}
	}
	return best
}

func (oldSched) reset() {}

func (oldSched) clone() scheduler { return &oldSched{} }

// lrrSched: loose round-robin over ready warps.
type lrrSched struct {
	last int
}

func (s *lrrSched) pick(warps []*Warp, ready []int, cycle int64) int {
	if len(ready) == 0 {
		return -1
	}
	best := -1
	// The smallest index strictly greater than last, wrapping around.
	for _, i := range ready {
		if i > s.last && (best == -1 || i < best) {
			best = i
		}
	}
	if best == -1 {
		for _, i := range ready {
			if best == -1 || i < best {
				best = i
			}
		}
	}
	s.last = best
	return best
}

func (s *lrrSched) reset() {}

func (s *lrrSched) clone() scheduler { c := *s; return &c }

// twoLevelSched: a small active set scheduled round-robin; warps that
// stall are swapped out for pending warps.
type twoLevelSched struct {
	group  int
	active []int
	rr     int
}

func (s *twoLevelSched) pick(warps []*Warp, ready []int, cycle int64) int {
	if s.group <= 0 {
		s.group = 8
	}
	readySet := map[int]bool{}
	for _, i := range ready {
		readySet[i] = true
	}
	// Drop finished or stalled-too-long warps from the active set.
	keep := s.active[:0]
	for _, i := range s.active {
		if i < len(warps) && !warps[i].Finished && (readySet[i] || cycle-warps[i].LastIssue < 8) {
			keep = append(keep, i)
		}
	}
	s.active = keep
	// Refill from ready warps not in the set, oldest first.
	for len(s.active) < s.group {
		best := -1
		var bestAge int64
		for _, i := range ready {
			inSet := false
			for _, a := range s.active {
				if a == i {
					inSet = true
					break
				}
			}
			if inSet {
				continue
			}
			if best == -1 || warps[i].Age < bestAge {
				best, bestAge = i, warps[i].Age
			}
		}
		if best == -1 {
			break
		}
		s.active = append(s.active, best)
	}
	if len(s.active) == 0 {
		return -1
	}
	// Round-robin within the active set.
	for k := 1; k <= len(s.active); k++ {
		cand := s.active[(s.rr+k)%len(s.active)]
		if readySet[cand] {
			s.rr = (s.rr + k) % len(s.active)
			return cand
		}
	}
	return -1
}

func (s *twoLevelSched) reset() { s.active = s.active[:0] }

func (s *twoLevelSched) clone() scheduler {
	c := *s
	c.active = append([]int(nil), s.active...)
	return &c
}
