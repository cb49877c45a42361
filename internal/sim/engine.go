package sim

import (
	"fmt"
	"math/bits"

	"cchunter/internal/cache"
	"cchunter/internal/conflict"
	"cchunter/internal/trace"
)

// Run advances the simulation until every context's clock reaches the
// absolute cycle `until` (or all processes finish). It may be called
// repeatedly with increasing targets; state carries over. Determinism:
// the engine always executes the pending operation of the context with
// the smallest clock, breaking ties by context ID (the heap order of
// ctxheap.go).
//
// The engine pulls each op with a direct Step call that writes it
// straight into the process's pending-op slot, so the steady-state op
// loop performs no heap allocation and no Op copy. Programs are parked
// at an op boundary (quiesce) only when Run returns normally: a panic
// from a program, a listener or the zero-time guard unwinds with no
// further Step call and without flushing the events still buffered,
// so no second panic can replace the first.
func (s *System) Run(until uint64) {
	if !s.started {
		s.started = true
		s.heapInit()
	}
	span := s.mRunNS.Start() // zero Span when metrics are off: no clock read
	defer span.End()
	for {
		c := s.heapMin()
		if c == nil || c.clock >= until {
			s.quiesce()
			return
		}
		s.runOps(c, until)
	}
}

// runOps executes a run of ops on c, the heap root. Only c's clock
// moves during the run, so the heap stays valid with c at the root
// while c still sorts before the root's smaller child: the context the
// min-clock rule would pick after each op is c itself, and the run
// executes exactly the ops a re-pick per op would. The run ends at the
// first op after which c no longer sorts first (the one heap fix of
// the run), at until, at a quantum boundary or when the process
// finishes; the last two restore the heap themselves.
func (s *System) runOps(c *hwContext, until uint64) {
	p := c.runq[0]
	if !p.started {
		p.started = true
		p.prog.Begin(p.machine)
	}
	next := s.heapNext()
	for {
		if !p.hasPend && !s.fetchOp(p) {
			s.reapProc(c, p)
			return
		}
		if c.clock >= c.quantumEnd {
			s.quantumBoundary(c)
			return // placement may have changed; re-pick
		}
		p.hasPend = false
		p.last = s.execute(c, &p.pendOp)
		if next != nil && !ctxLess(c, next) {
			s.heapDown(0)
			return
		}
		if c.clock >= until {
			return
		}
	}
}

// fetchOp obtains the process's next operation: a Step call that
// writes it in place into p.pendOp. It returns false (marking the
// process done) when the program has finished. It is the single fetch
// path for Run and quiesce; keep it within the inlining budget, as it
// runs once per op.
func (s *System) fetchOp(p *Process) bool {
	p.hasPend = p.prog.Step(p.last, &p.pendOp)
	p.done = !p.hasPend
	return p.hasPend
}

// quiesce parks every running program at an op boundary: the next
// operation is prefetched (advancing program-side state up to the
// point of issuing it), so the caller can safely read program state
// (decoded bits, latency series) knowing every completed op's effects
// have been applied.
func (s *System) quiesce() {
	for _, p := range s.procs {
		if !p.started || p.done || p.hasPend {
			continue
		}
		if !s.fetchOp(p) {
			s.reapProc(p.ctx, p)
		}
	}
	// Drain the delivery pipeline front to back: buffered batches first
	// (they feed the injector), then any event the injector's reorder
	// stage is still holding, so listeners see a complete stream before
	// the caller analyzes.
	s.batcher.Flush()
	if s.injector != nil {
		s.injector.Flush()
	}
	s.publishMetrics()
}

// reapProc removes a finished process from its context's run queue.
// The departing process is almost always the currently scheduled one
// (runq[0]); the linear fallback only runs for processes reaped off
// the run position (e.g. at quiesce after a migration).
func (s *System) reapProc(c *hwContext, p *Process) {
	if len(c.runq) > 0 && c.runq[0] == p {
		c.runq = c.runq[1:]
	} else {
		for i, q := range c.runq {
			if q == p {
				c.runq = append(c.runq[:i], c.runq[i+1:]...)
				break
			}
		}
	}
	if len(c.runq) == 0 {
		s.heapRemove(c)
	}
}

// quantumBoundary handles an OS timer tick on context c: rotate the
// run queue (charging a context-switch cost when a different process
// comes in) and, with MigrationProb, migrate the outgoing unpinned
// process to the least-loaded other context.
func (s *System) quantumBoundary(c *hwContext) {
	for c.quantumEnd <= c.clock {
		c.quantumEnd += s.cfg.QuantumCycles
	}
	s.publishMetrics()
	if len(c.runq) == 0 {
		return
	}
	cur := c.runq[0]
	if s.cfg.MigrationProb > 0 && cur.pinned < 0 && len(s.contexts) > 1 &&
		s.rng.Float64() < s.cfg.MigrationProb {
		var target *hwContext
		for _, o := range s.contexts {
			if o == c {
				continue
			}
			if target == nil || len(o.runq) < len(target.runq) {
				target = o
			}
		}
		c.runq = c.runq[1:]
		if len(c.runq) == 0 {
			s.heapRemove(c)
		}
		// The process resumes once the target context's clock catches
		// up; its clock never runs backwards because the engine always
		// executes the globally smallest clock first.
		if target.clock < c.clock {
			target.clock = c.clock
		}
		target.runq = append(target.runq, cur)
		cur.ctx = target
		if target.heapIdx < 0 {
			s.heapPush(target)
		} else {
			s.heapFix(target)
		}
		s.migrations++
		return
	}
	if len(c.runq) > 1 {
		c.runq = append(c.runq[1:], cur)
		c.clock += s.cfg.CtxSwitchCycles
		s.heapFix(c)
		s.switches++
	}
}

// execute performs one operation on context c at the context's
// current clock and returns the program-observable result. The op is
// passed by pointer (it lives in the process's pendOp slot) so the
// steady-state loop moves no 56-byte struct per operation. Indicator
// events are stamped at the issue cycle, which equals the global
// minimum clock, keeping the event stream time-ordered.
func (s *System) execute(c *hwContext, op *Op) OpResult {
	s.opCount++ // published at quantum boundaries; see publishMetrics
	t0 := c.clock
	var latency uint64
	switch op.Kind {
	case OpCompute:
		latency = op.Cycles
	case OpNow:
		latency = 0
	case OpWaitUntil:
		if op.Cycles > c.clock {
			latency = op.Cycles - c.clock
		}
	case OpLoad, OpStore:
		latency = s.memAccess(c, op.Addr, t0, t0)
	case OpLoadN:
		for _, a := range op.Addrs {
			latency += s.memAccess(c, a, t0+latency, t0)
		}
	case OpAtomicUnaligned:
		start := t0
		if lim := s.cfg.Mitigations.BusLimiter; lim != nil {
			start += lim.Penalty(t0, c.id)
		}
		done, _ := s.bus.LockAccess(start, c.id)
		latency = done - t0
	case OpDiv:
		start := s.dividerSlot(c, t0)
		done, _ := c.core.div.DivideStamped(start, t0, c.id)
		latency = done - t0
	case OpDivN:
		if s.cfg.Mitigations.DividerTDM == nil {
			latency = c.core.div.DivideN(t0, t0, c.id, op.Count) - t0
			break
		}
		// Under TDM each division's slot depends on where the one
		// before it completed.
		cursor := t0
		for i := 0; i < op.Count; i++ {
			cursor = s.dividerSlot(c, cursor)
			cursor, _ = c.core.div.DivideStamped(cursor, t0, c.id)
		}
		latency = cursor - t0
	case OpTLBProbe:
		latency, _ = c.core.tlb.Probe(t0, t0, c.id, op.Addr)
	default:
		panic("sim: unknown op")
	}
	c.clock = t0 + latency
	if latency == 0 {
		c.zeroTime()
	}
	observedLat := latency
	observedNow := c.clock
	if f := s.cfg.Mitigations.Fuzz; f != nil {
		// Fuzzy time: every measurement the program can make — op
		// latencies and clock reads — is degraded; the architectural
		// clock is not.
		switch op.Kind {
		case OpLoad, OpStore, OpLoadN, OpAtomicUnaligned, OpDiv, OpDivN, OpTLBProbe:
			observedLat = f.Observe(latency)
		}
		observedNow = f.ObserveClock(c.clock)
	}
	return OpResult{Now: observedNow, Latency: observedLat}
}

// maxZeroTimeOps bounds how many zero-latency ops (a clock read, a
// zero-cycle compute, a wait for a past cycle) one context may execute
// without its clock advancing. A context whose clock never advances
// holds the minimum forever: neither Run's exit nor a quantum boundary
// can fire, and Run never returns. The longest run the built-in
// programs reach is 2 over the golden scenarios and 6 over every
// ccrepro figure (the bus trojan); the bound sits five orders of
// magnitude above that.
const maxZeroTimeOps = 1 << 20

// zeroTime counts a zero-latency op on c. Consecutive zero-latency ops
// share the clock they leave unchanged, so a run is counted from the
// first op at a new clock value; past maxZeroTimeOps the context has
// stalled and the engine panics.
func (c *hwContext) zeroTime() {
	c.zeroOps++
	if c.zeroClock != c.clock {
		c.zeroClock, c.zeroOps = c.clock, 1
	} else if c.zeroOps > maxZeroTimeOps {
		panic(stallError{c})
	}
}

// stallError is the panic value of a stalled context; its message
// names the program that stalled the clock. Formatting it lazily keeps
// zeroTime within the inlining budget of the op loop.
type stallError struct{ c *hwContext }

func (e stallError) Error() string {
	return fmt.Sprintf("sim: program %q on context %d issued %d zero-latency ops at cycle %d; its clock can never advance",
		e.c.runq[0].Name(), e.c.id, e.c.zeroOps, e.c.clock)
}

// dividerSlot applies the divider time-multiplexing mitigation: the
// earliest cycle at or after now when this context may divide.
func (s *System) dividerSlot(c *hwContext, now uint64) uint64 {
	tdm := s.cfg.Mitigations.DividerTDM
	if tdm == nil {
		return now
	}
	thread := int(c.id) % s.cfg.ThreadsPerCore
	return tdm.NextSlot(now, thread, s.cfg.ThreadsPerCore, c.core.div.Config().DivCycles)
}

// memAccess runs one load/store through the core's hierarchy: L1, the
// hyperthread-shared L2 with its conflict-miss tracker, then the
// shared bus and memory. It returns the total latency. `now` is the
// access's timing start; `stamp` is the cycle any emitted event is
// stamped with (the issue cycle of the enclosing request, which keeps
// the global event stream time-ordered across batched accesses).
func (s *System) memAccess(c *hwContext, addr uint64, now, stamp uint64) uint64 {
	co := c.core
	lat := co.l1.HitLatency()
	hit, l1Block, l1Evicted := co.l1.AccessHit(addr, c.id)
	if hit {
		return lat
	}
	if l1Evicted {
		// The L1 dropped the line this block held: that line's L2
		// block no longer has a copy in this core.
		s.presence[co.l2Block[l1Block]] &^= co.bit
	}
	if s.ring != nil {
		// The miss transits the ring to the slice owning the line
		// before the shared L2 services it.
		done, _ := s.ring.Transit(now+lat, stamp, c.id, co.id, addr>>s.lineShift)
		lat = done - now
	}
	// The L2 fills a result slot on this frame and the default tracker
	// takes the four scalars it reads: neither hand-off round-trips a
	// large struct through the stack. The L2 changes nowhere else, and
	// every change here reaches the tracker, which is what the
	// practical tracker's per-block stamps require.
	var l2 cache.Result
	lo, hi := 0, s.l2.Ways()
	if part := s.cfg.Mitigations.Partition; part != nil {
		lo, hi = part.WayRange(c.id, hi)
	}
	s.l2.AccessInto(&l2, addr, c.id, lo, hi)
	lat += s.l2.HitLatency()
	present := s.presence[l2.Block]
	if l2.Evicted {
		// Inclusive hierarchy: an L2 eviction back-invalidates the L1
		// copies, which the block's presence bits name exactly.
		for m := present; m != 0; m &= m - 1 {
			s.cores[bits.TrailingZeros8(m)].l1.InvalidateLine(l2.EvictedLine)
		}
		present = 0
	}
	s.presence[l2.Block] = present | co.bit
	co.l2Block[l1Block] = l2.Block
	var isConflict bool
	if s.trackGen != nil {
		isConflict = s.trackGen.ObserveAccess(l2.Block, l2.LineAddr, l2.Hit, l2.Evicted)
	} else {
		isConflict = s.tracker.Observe(conflict.Observation{
			LineAddr:     l2.LineAddr,
			Set:          l2.Set,
			Block:        l2.Block,
			Ctx:          c.id,
			Hit:          l2.Hit,
			Evicted:      l2.Evicted,
			EvictedLine:  l2.EvictedLine,
			EvictedOwner: l2.EvictedOwner,
		})
	}
	if isConflict {
		victim := trace.NoContext
		if l2.Evicted {
			victim = l2.EvictedOwner
		}
		s.batcher.Add(trace.Event{
			Cycle:  stamp,
			Kind:   trace.KindConflictMiss,
			Actor:  c.id,
			Victim: victim,
			Unit:   l2.Set,
		})
	}
	if l2.Hit {
		return lat
	}
	busStart := now + lat
	done, _ := s.bus.Access(busStart, c.id)
	return (done - now) + s.cfg.MemCycles
}
