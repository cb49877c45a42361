// Package sim is a deterministic discrete-event simulator of a small
// SMT multicore — the substrate standing in for the paper's MARSSx86
// full-system setup (quad-core 2.5 GHz, two hyperthreads per core,
// per-core L1s and divider banks, a chip-shared L2 with conflict-miss
// tracking, and a shared memory bus with lock semantics).
//
// Programs are state machines the engine steps with direct calls, one
// operation at a time: it always runs the hardware context with the
// smallest local clock and executes exactly one operation against
// shared state, so results are bit-for-bit reproducible and free of Go
// runtime/GC timing jitter — the property that makes a timing-channel
// reproduction in Go possible at all (see DESIGN.md).
package sim

import (
	"cchunter/internal/bus"
	"cchunter/internal/cache"
	"cchunter/internal/divider"
	"cchunter/internal/faults"
	"cchunter/internal/mitigate"
	"cchunter/internal/obs"
	"cchunter/internal/ring"
)

// TrackerKind selects the conflict-miss tracker attached to each
// shared cache.
type TrackerKind int

const (
	// TrackerGenerational is the paper's practical generation/Bloom
	// design (the default).
	TrackerGenerational TrackerKind = iota
	// TrackerIdeal is the exact fully-associative LRU stack.
	TrackerIdeal
)

// Config describes the simulated machine.
type Config struct {
	// Cores is the number of physical cores (paper: 4).
	Cores int
	// ThreadsPerCore is the number of SMT hardware contexts per core
	// (paper: 2).
	ThreadsPerCore int
	// ClockHz is the nominal clock, used only to convert seconds-based
	// quantities (bandwidth, OS quantum) into cycles (paper: 2.5 GHz).
	ClockHz uint64
	// QuantumCycles is the OS scheduler time quantum (paper: 0.1 s =
	// 250 M cycles).
	QuantumCycles uint64
	// CtxSwitchCycles is charged when a context switches between
	// software processes at a quantum boundary.
	CtxSwitchCycles uint64
	// MemCycles is the DRAM access latency beyond the bus transfer.
	MemCycles uint64
	// L1 configures the per-core L1 (shared by the core's
	// hyperthreads, as on Nehalem).
	L1 cache.Config
	// L2 configures the chip-shared last-level cache — the medium of
	// the cache covert channel, shared by every hardware context as in
	// Xu et al.'s cross-VM setting. The paper models 256 KB per core;
	// we default to one shared 1 MB cache so that the channel's
	// largest configuration (512 sets) occupies a quarter of the
	// cache, preserving the "enough capacity left" premise that makes
	// premature evictions conflict misses, and so that other tenants'
	// traffic interleaves into the conflict-miss train exactly as the
	// paper's noise discussion assumes (see DESIGN.md §2).
	L2 cache.Config
	// Bus configures the shared memory bus.
	Bus bus.Config
	// Div configures each core's divider bank.
	Div divider.Config
	// Ring configures the slotted ring interconnect between the cores
	// and the sliced last-level cache. The zero value (Stops == 0)
	// leaves the interconnect unmodelled, keeping every pre-ring
	// simulation bit-for-bit identical; ring-channel scenarios enable
	// it explicitly.
	Ring ring.Config
	// Tracker selects the conflict-miss tracker implementation.
	Tracker TrackerKind
	// MigrationProb is the per-quantum probability that a context's
	// current unpinned process migrates to another context, modelling
	// the OS moving processes across cores (§V-A).
	MigrationProb float64
	// Mitigations holds the damage-control policies the OS applies
	// after a CC-Hunter alarm (see internal/mitigate). All nil by
	// default: an unprotected machine.
	Mitigations Mitigations
	// Faults perturbs the indicator-event stream between the hardware
	// units and the registered listeners (auditor, recorders), modelling
	// an imperfect CC-Auditor sensor path (see internal/faults). The
	// zero value leaves the path pristine and the simulation bit-for-bit
	// identical to a build without the injector.
	Faults faults.Config
	// Metrics, when non-nil, receives pipeline observability data:
	// operation and scheduling counters from the engine, batch and
	// fault-injection counters from the delivery chain. Metrics are
	// observational only — nothing in the simulation reads them back,
	// so results are byte-identical with or without a registry (the
	// golden-verdict suite pins this). Nil (the default) selects the
	// no-op fast path.
	Metrics *obs.Registry
	// EventBatch sets the size of the batches the hardware units'
	// trace.Batcher hands to the fault-injector/listener chain; 0
	// selects trace.DefaultBatchSize. Events reach every consumer in
	// the same order at any size, so every result field except
	// core.StreamingInfo.PeakRetainedEvents is byte-identical (pinned
	// by TestBatchedDeliveryMatchesPerEvent in the root package, which
	// is the only caller that varies it).
	EventBatch int
	// Seed drives all scheduling randomness.
	Seed uint64
}

// Mitigations bundles the optional post-detection defenses.
type Mitigations struct {
	// BusLimiter rate-limits bus locks per context.
	BusLimiter *mitigate.BusLockLimiter
	// Partition way-partitions the shared L2 between contexts.
	Partition *mitigate.CachePartition
	// Fuzz degrades the latencies programs observe.
	Fuzz *mitigate.ClockFuzz
	// DividerTDM time-multiplexes each core's dividers between its
	// hyperthreads.
	DividerTDM *mitigate.DividerTDM
}

// DefaultConfig returns the paper-calibrated machine.
func DefaultConfig() Config {
	return Config{
		Cores:           4,
		ThreadsPerCore:  2,
		ClockHz:         2_500_000_000,
		QuantumCycles:   250_000_000,
		CtxSwitchCycles: 5_000,
		MemCycles:       150,
		L1:              cache.DefaultL1(),
		L2:              cache.Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8, HitLatency: 12},
		Bus:             bus.DefaultConfig(),
		Div:             divider.DefaultConfig(),
		Tracker:         TrackerGenerational,
		MigrationProb:   0,
		Seed:            1,
	}
}

// TestConfig returns a machine scaled for fast unit tests: same
// structure, much shorter quantum.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.QuantumCycles = 1_000_000
	cfg.CtxSwitchCycles = 500
	return cfg
}

// Contexts returns the number of hardware contexts.
func (c Config) Contexts() int { return c.Cores * c.ThreadsPerCore }

// CyclesPerBit returns the duration of one bit slot at the given
// channel bandwidth in bits per second.
func (c Config) CyclesPerBit(bps float64) uint64 {
	if bps <= 0 {
		panic("sim: bandwidth must be positive")
	}
	return uint64(float64(c.ClockHz) / bps)
}

// Geometry is the static machine description visible to programs.
type Geometry struct {
	Contexts         int
	Cores            int
	ThreadsPerCore   int
	ClockHz          uint64
	QuantumCycles    uint64
	LineBytes        int
	L1Sets, L1Ways   int
	L2Sets, L2Ways   int
	MemCycles        uint64
	RingStops        int // 0 when the ring interconnect is disabled
	TLBSets, TLBWays int
}
