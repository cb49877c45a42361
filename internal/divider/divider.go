// Package divider models the integer division units shared between the
// two hyperthreads of an SMT core — the paper's second covert channel
// medium (§IV-A; Wang and Lee showed the same construction with
// multipliers). The indicator event is a division instruction from one
// hardware context waiting on a divider occupied by an instruction from
// another context. Note that not all divisions raise the event: only
// cross-context waits do.
package divider

import "cchunter/internal/trace"

// Config sets the divider bank parameters.
type Config struct {
	// Units is the number of division units in the core.
	Units int
	// DivCycles is the (unpipelined) latency of one division.
	DivCycles uint64
}

// DefaultConfig models one short-latency radix-16 divider per core,
// the arrangement that makes the paper's Δt = 500-cycle density
// histogram land its burst distribution near bin 96 under saturation.
func DefaultConfig() Config {
	return Config{Units: 1, DivCycles: 5}
}

// Bank is the division unit cluster of one core. The engine serializes
// calls in global time order.
type Bank struct {
	cfg       Config
	busyFrom  []uint64 // start of the latest division on each unit
	busyUntil []uint64
	occupant  []uint8
	out       *trace.Batcher // indicator events; nil reports none

	divisions  uint64
	contention uint64
}

// New returns a divider bank.
func New(cfg Config, out *trace.Batcher) *Bank {
	if cfg.Units <= 0 {
		cfg.Units = DefaultConfig().Units
	}
	if cfg.DivCycles == 0 {
		cfg.DivCycles = DefaultConfig().DivCycles
	}
	return &Bank{
		cfg:       cfg,
		busyFrom:  make([]uint64, cfg.Units),
		busyUntil: make([]uint64, cfg.Units),
		occupant:  make([]uint8, cfg.Units),
		out:       out,
	}
}

// Divide issues one division from ctx at cycle now. It picks the unit
// that frees earliest; when every unit is busy with another context's
// instruction, a KindDivContention event fires (Actor = waiter,
// Victim = occupant), stamped at the issue cycle. It returns the
// completion cycle and the cycles spent waiting.
func (b *Bank) Divide(now uint64, ctx uint8) (done, waited uint64) {
	return b.DivideStamped(now, now, ctx)
}

// DivideStamped is Divide with an explicit event timestamp. The engine
// uses it for batched divisions: every division of a batch is timed at
// its own cursor but stamped at the batch's issue cycle, so the global
// event stream stays time-ordered across contexts.
func (b *Bank) DivideStamped(now, stamp uint64, ctx uint8) (done, waited uint64) {
	best := 0
	for u := 1; u < len(b.busyUntil); u++ {
		if b.busyUntil[u] < b.busyUntil[best] {
			best = u
		}
	}
	// Backfill: the engine commits operations in issue order, so a
	// deferred-start division (e.g. one pushed to a later TDM epoch)
	// may already hold a future reservation. A division that both
	// starts and completes before that reservation begins uses the
	// idle gap without waiting — and without manufacturing phantom
	// contention.
	if now+b.cfg.DivCycles <= b.busyFrom[best] {
		b.divisions++
		return now + b.cfg.DivCycles, 0
	}
	start := now
	if b.busyUntil[best] > start {
		waited = b.busyUntil[best] - start
		start = b.busyUntil[best]
		if b.occupant[best] != ctx {
			b.contention++
			if b.out != nil {
				b.out.Add(trace.Event{
					Cycle:  stamp,
					Kind:   trace.KindDivContention,
					Actor:  ctx,
					Victim: b.occupant[best],
				})
			}
		}
	}
	done = start + b.cfg.DivCycles
	b.busyFrom[best] = start
	b.busyUntil[best] = done
	b.occupant[best] = ctx
	b.divisions++
	return done, waited
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
