// Package divider models the integer division unit shared between the
// two hyperthreads of an SMT core — the paper's second covert channel
// medium (§IV-A; Wang and Lee showed the same construction with
// multipliers). The indicator event is a division instruction from one
// hardware context waiting on a divider occupied by an instruction from
// another context. Note that not all divisions raise the event: only
// cross-context waits do.
package divider

import "cchunter/internal/trace"

// Config sets the divider parameters.
type Config struct {
	// DivCycles is the (unpipelined) latency of one division.
	DivCycles uint64
}

// DefaultConfig models one short-latency radix-16 divider per core,
// the arrangement that makes the paper's Δt = 500-cycle density
// histogram land its burst distribution near bin 96 under saturation.
func DefaultConfig() Config {
	return Config{DivCycles: 5}
}

// Bank is the single division unit of one core. The engine serializes
// calls in global time order.
type Bank struct {
	cfg       Config
	busyFrom  uint64         // start of the latest recorded division
	busyUntil uint64         // its completion cycle
	occupant  uint8          // the context that issued it
	out       *trace.Batcher // indicator events; nil reports none

	divisions  uint64
	contention uint64
}

// New returns a divider bank.
func New(cfg Config, out *trace.Batcher) *Bank {
	if cfg.DivCycles == 0 {
		cfg.DivCycles = DefaultConfig().DivCycles
	}
	return &Bank{cfg: cfg, out: out}
}

// Divide issues one division from ctx at cycle now. When the unit is
// busy with another context's instruction, a KindDivContention event
// fires (Actor = waiter, Victim = occupant), stamped at the issue
// cycle. It returns the completion cycle and the cycles spent waiting.
func (b *Bank) Divide(now uint64, ctx uint8) (done, waited uint64) {
	return b.DivideStamped(now, now, ctx)
}

// DivideStamped is Divide with an explicit event timestamp. The engine
// uses it for batched divisions under divider TDM (DivideN otherwise):
// every division of a batch is timed at its own cursor but stamped at
// the batch's issue cycle, so the global event stream stays
// time-ordered across contexts.
func (b *Bank) DivideStamped(now, stamp uint64, ctx uint8) (done, waited uint64) {
	// Backfill: the engine commits operations in issue order, so a
	// deferred-start division (e.g. one pushed to a later TDM epoch)
	// may already hold a future reservation. A division that both
	// starts and completes before that reservation begins uses the
	// idle gap without waiting — and without manufacturing phantom
	// contention.
	if now+b.cfg.DivCycles <= b.busyFrom {
		b.divisions++
		return now + b.cfg.DivCycles, 0
	}
	start := now
	if b.busyUntil > start {
		waited = b.busyUntil - start
		start = b.busyUntil
		if b.occupant != ctx {
			b.contention++
			if b.out != nil {
				b.out.Add(trace.Event{
					Cycle:  stamp,
					Kind:   trace.KindDivContention,
					Actor:  ctx,
					Victim: b.occupant,
				})
			}
		}
	}
	done = start + b.cfg.DivCycles
	b.busyFrom = start
	b.busyUntil = done
	b.occupant = ctx
	b.divisions++
	return done, waited
}

// DivideN issues n back-to-back divisions from ctx starting at cycle
// now, every event stamped at stamp, and returns the cycle the last
// one completes (now when n is 0). It returns, records, counts and
// emits exactly what n chained DivideStamped calls would — each one
// issued at the completion of the one before — but in constant time,
// because the chain has three phases with a closed form each:
//
//  1. Backfill: while a division fits before the recorded reservation
//     begins, it takes DivCycles and changes nothing.
//  2. One full division, which may wait on the unit and, when the
//     occupant is another context, emits one contention event.
//  3. The rest start as the one before completes: they never wait
//     and never emit, and the last of them is the one recorded.
//
// Only that last division is remembered as busy, so a sibling's
// division that arrives while the batch holds the unit backfills into
// it instead of waiting. The batch under-reports contention this way;
// DivideN reproduces that on purpose, as the per-division chain does.
func (b *Bank) DivideN(now, stamp uint64, ctx uint8, n int) uint64 {
	if n <= 0 {
		return now
	}
	d := b.cfg.DivCycles
	k := uint64(n)
	if b.busyFrom < now {
		k = 0
	} else if fit := (b.busyFrom - now) / d; fit < k {
		k = fit
	}
	cursor := now + k*d
	b.divisions += k
	if k == uint64(n) {
		return cursor
	}
	cursor, _ = b.DivideStamped(cursor, stamp, ctx)
	if rest := uint64(n) - k - 1; rest > 0 {
		cursor += rest * d
		b.busyFrom = cursor - d
		b.busyUntil = cursor
		b.divisions += rest
	}
	return cursor
}

// Stats reports cumulative divider activity.
type Stats struct {
	Divisions  uint64 // total divisions issued
	Contention uint64 // cross-context waits (indicator events)
}

// Stats returns a snapshot of the counters.
func (b *Bank) Stats() Stats {
	return Stats{Divisions: b.divisions, Contention: b.contention}
}

// Config returns the bank configuration.
func (b *Bank) Config() Config { return b.cfg }
