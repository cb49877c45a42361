// Package bus models the shared memory bus (or its QuickPath
// Interconnect emulation) that the paper's first covert channel
// exploits (§IV-A). The channel's indicator event is the bus lock: an
// atomic memory access that spans two cache lines forces the bus into a
// locked, contended state on Intel Nehalem / AMD K10 class machines,
// and the behaviour is still emulated on QPI-based parts for unaligned
// atomics (Intel 7500 datasheet, paper ref [22]).
package bus

import "cchunter/internal/trace"

// Config sets the timing parameters of the bus model.
type Config struct {
	// AccessCycles is the bus occupancy of one ordinary memory
	// transfer (cache-line fill).
	AccessCycles uint64
	// LockCycles is the bus occupancy of one atomic unaligned access
	// spanning two cache lines: the split transaction locks the bus
	// for substantially longer than a normal transfer.
	LockCycles uint64
}

// DefaultConfig returns timings loosely calibrated to the paper's
// 2.5 GHz Xeon E5540 platform: ~24 ns per line fill on the bus, and
// ~1 µs of bus occupancy per atomic unaligned access — the split
// transaction stalls the whole memory system, which is exactly why it
// makes a usable covert channel transmitter.
func DefaultConfig() Config {
	return Config{AccessCycles: 60, LockCycles: 2_500}
}

// Bus is the shared interconnect. All methods take the requesting
// context and the issue cycle and return the completion cycle; the
// engine serializes calls in global time order, so the model keeps
// plain busy-until state.
type Bus struct {
	cfg       Config
	busyUntil uint64
	listener  trace.Listener

	// Counters for reporting.
	transfers      uint64
	locks          uint64
	waitedCycles   uint64
	lockWaitCycles uint64
}

// New returns a bus with the given configuration.
func New(cfg Config, l trace.Listener) *Bus {
	if cfg.AccessCycles == 0 {
		cfg.AccessCycles = DefaultConfig().AccessCycles
	}
	if cfg.LockCycles == 0 {
		cfg.LockCycles = DefaultConfig().LockCycles
	}
	return &Bus{cfg: cfg, listener: l}
}

// Access performs an ordinary memory transfer issued at cycle now by
// ctx. It returns the completion cycle and how long the request waited
// for the bus (the covert channel's receiver decodes bits from exactly
// this waiting time).
func (b *Bus) Access(now uint64, ctx uint8) (done, waited uint64) {
	start := now
	if b.busyUntil > start {
		waited = b.busyUntil - start
		start = b.busyUntil
	}
	done = start + b.cfg.AccessCycles
	b.busyUntil = done
	b.transfers++
	b.waitedCycles += waited
	return done, waited
}

// LockAccess performs an atomic unaligned access spanning two cache
// lines: it acquires the bus, holds it locked for LockCycles, and emits
// a KindBusLock indicator event stamped at the issue cycle (events are
// stamped at issue so that the global event stream stays time-ordered).
func (b *Bus) LockAccess(now uint64, ctx uint8) (done, waited uint64) {
	start := now
	if b.busyUntil > start {
		waited = b.busyUntil - start
		start = b.busyUntil
	}
	done = start + b.cfg.LockCycles
	b.busyUntil = done
	b.locks++
	b.lockWaitCycles += waited
	if b.listener != nil {
		b.listener.OnEvent(trace.Event{
			Cycle:  now,
			Kind:   trace.KindBusLock,
			Actor:  ctx,
			Victim: trace.NoContext,
		})
	}
	return done, waited
}

// Stats reports cumulative bus activity.
type Stats struct {
	Transfers      uint64 // ordinary transfers completed
	Locks          uint64 // bus-lock (atomic unaligned) operations
	WaitedCycles   uint64 // cycles ordinary transfers spent waiting
	LockWaitCycles uint64 // cycles lock operations spent waiting
}

// Stats returns a snapshot of the counters.
func (b *Bus) Stats() Stats {
	return Stats{
		Transfers:      b.transfers,
		Locks:          b.locks,
		WaitedCycles:   b.waitedCycles,
		LockWaitCycles: b.lockWaitCycles,
	}
}

// BusyUntil returns the cycle at which the bus becomes free; exposed
// for tests and the engine's introspection tools.
func (b *Bus) BusyUntil() uint64 { return b.busyUntil }
