package sim

// ctxHeap is an indexed binary min-heap over the non-idle hardware
// contexts, keyed by (clock, context id). It replaces the O(contexts)
// linear scan the engine used to run before every operation: the
// scheduling invariant — execute the pending op of the context with
// the smallest clock, ties to the lowest id — is exactly the heap
// order, so heapMin is the old pickContext.
//
// Membership tracks runq occupancy: a context is in the heap iff its
// run queue is non-empty. Each hwContext carries its own heap index
// so key updates are O(log n) sift operations with no search. The
// engine runs ops on the root until it no longer sorts before
// heapNext (engine.go, runOps), so an op costs one compare and a run
// one sift.

// ctxLess is the engine's documented scheduling order.
func ctxLess(a, b *hwContext) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

// heapInit (re)builds the heap from the contexts that currently have
// runnable processes. Called once when Run first starts.
func (s *System) heapInit() {
	s.heap = s.heap[:0]
	for _, c := range s.contexts {
		c.heapIdx = -1
		if len(c.runq) > 0 {
			c.heapIdx = len(s.heap)
			s.heap = append(s.heap, c)
		}
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.heapDown(i)
	}
}

// heapMin returns the non-idle context with the smallest (clock, id),
// or nil when every context is idle.
func (s *System) heapMin() *hwContext {
	if len(s.heap) == 0 {
		return nil
	}
	return s.heap[0]
}

// heapPush inserts a context that just became non-idle.
func (s *System) heapPush(c *hwContext) {
	c.heapIdx = len(s.heap)
	s.heap = append(s.heap, c)
	s.heapUp(c.heapIdx)
}

// heapRemove deletes a context that just went idle.
func (s *System) heapRemove(c *hwContext) {
	i := c.heapIdx
	if i < 0 {
		return
	}
	last := len(s.heap) - 1
	if i != last {
		s.heap[i] = s.heap[last]
		s.heap[i].heapIdx = i
	}
	s.heap = s.heap[:last]
	c.heapIdx = -1
	if i != last {
		s.heapFix(s.heap[i])
	}
}

// heapNext returns the root's smaller child, the context the
// min-clock rule picks once the root no longer sorts first, or nil
// when the root is the only non-idle context.
func (s *System) heapNext() *hwContext {
	h := s.heap
	switch {
	case len(h) < 2:
		return nil
	case len(h) == 2 || ctxLess(h[1], h[2]):
		return h[1]
	}
	return h[2]
}

// heapFix restores heap order after c's clock changed.
func (s *System) heapFix(c *hwContext) {
	if c.heapIdx < 0 {
		return
	}
	if !s.heapDown(c.heapIdx) {
		s.heapUp(c.heapIdx)
	}
}

func (s *System) heapUp(i int) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !ctxLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].heapIdx, h[parent].heapIdx = i, parent
		i = parent
	}
}

func (s *System) heapDown(i int) bool {
	h := s.heap
	n := len(h)
	moved := false
	for {
		least := i
		if l := 2*i + 1; l < n && ctxLess(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && ctxLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			return moved
		}
		h[i], h[least] = h[least], h[i]
		h[i].heapIdx, h[least].heapIdx = i, least
		i = least
		moved = true
	}
}
