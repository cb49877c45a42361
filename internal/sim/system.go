package sim

import (
	"errors"
	"fmt"

	"cchunter/internal/bus"
	"cchunter/internal/cache"
	"cchunter/internal/conflict"
	"cchunter/internal/divider"
	"cchunter/internal/faults"
	"cchunter/internal/obs"
	"cchunter/internal/ring"
	"cchunter/internal/stats"
	"cchunter/internal/tlb"
	"cchunter/internal/trace"
)

// ErrBadConfig is wrapped by every configuration validation error in
// this package.
var ErrBadConfig = errors.New("sim: bad configuration")

// Process is one software process known to the simulated OS.
type Process struct {
	id      int
	name    string
	prog    Program
	pinned  int // hardware context ID, or -1 when free to migrate
	sys     *System
	machine *Machine

	// last carries the previous op's result into the next Step.
	last OpResult

	// pendOp is the fetched-but-not-yet-executed operation, held by
	// value: programs write it in place through Step's op pointer, so
	// the steady-state op path neither allocates nor copies an Op.
	pendOp  Op
	hasPend bool

	started bool
	done    bool

	ctx *hwContext // context the process is currently queued on
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Done reports whether the program has finished (its Step returned
// false).
func (p *Process) Done() bool { return p.done }

// core bundles the per-core hardware.
type core struct {
	id  int
	bit uint8 // this core's bit in System.presence
	l1  *cache.Cache
	// l2Block[b] is the L2 block holding the line L1 block b holds,
	// set on every L1 fill. It is meaningful while L1 block b is
	// valid: an invalidated block keeps a stale pointer, but its next
	// fill reports no eviction, so the pointer is never read.
	l2Block []uint32
	div     *divider.Bank
	tlb     *tlb.TLB
}

// MaxCores is the largest core count a machine may have: the L2 keeps
// one presence bit per core in a byte of block metadata.
const MaxCores = 8

// hwContext is one SMT hardware context.
type hwContext struct {
	id         uint8
	core       *core
	clock      uint64
	quantumEnd uint64
	runq       []*Process // runq[0] is the currently scheduled process
	heapIdx    int        // position in System.heap, -1 when idle
	// zeroClock and zeroOps track the current run of zero-latency ops
	// (see zeroTime).
	zeroClock uint64
	zeroOps   int
}

// System is the simulated machine plus its OS layer.
type System struct {
	cfg      Config
	cores    []*core
	contexts []*hwContext
	l2       *cache.Cache
	// presence[b] has bit k set exactly when core k's L1 holds the
	// line in L2 block b — the core-valid bits an inclusive L2 keeps
	// in its block metadata, so an L2 eviction back-invalidates only
	// the L1s that hold the line.
	presence []uint8
	tracker  conflict.Tracker
	// trackGen aliases tracker when the practical generational design
	// is selected (the default): the hot path then calls
	// ObserveAccess on a concrete pointer with the four scalars it
	// reads, instead of an interface dispatch with an eight-field
	// Observation per L2 access.
	trackGen  *conflict.Generational
	bus       *bus.Bus
	ring      *ring.Ring // nil unless cfg.Ring.Stops > 0
	lineShift uint       // log2(L2 line bytes), for ring slice hashing
	listeners trace.Tee
	// batcher is what the hardware units report to: it hands batches
	// to the fault injector (when one is configured) or to &listeners
	// directly.
	batcher  *trace.Batcher
	injector *faults.Injector
	procs    []*Process
	rng      *stats.RNG
	heap     []*hwContext // min-heap over non-idle contexts; see ctxheap.go
	started  bool

	migrations uint64
	switches   uint64

	// Observability: opCount accumulates executed operations between
	// publishes (a plain add per op — cheaper than checking whether
	// metrics are enabled); the instruments are nil when cfg.Metrics is
	// nil, making every publish a no-op.
	opCount     uint64
	mOps        *obs.Counter
	mSwitches   *obs.Gauge
	mMigrations *obs.Gauge
	mRunNS      *obs.Timer
}

// New builds a system from cfg, rejecting inconsistent machine
// descriptions with an error wrapping ErrBadConfig. Listeners
// registered later receive every indicator event the hardware emits —
// routed through the sensor fault injector when cfg.Faults is set.
func New(cfg Config) (*System, error) {
	if cfg.Cores <= 0 || cfg.ThreadsPerCore <= 0 {
		return nil, fmt.Errorf("%w: need at least one core and one thread, got %d cores × %d threads",
			ErrBadConfig, cfg.Cores, cfg.ThreadsPerCore)
	}
	if cfg.Cores > MaxCores {
		return nil, fmt.Errorf("%w: %d cores exceed the L2's %d presence bits", ErrBadConfig, cfg.Cores, MaxCores)
	}
	if cfg.ThreadsPerCore > int(trace.NoContext)/cfg.Cores {
		return nil, fmt.Errorf("%w: %d cores × %d threads: context IDs are bytes, at most %d of them below trace.NoContext",
			ErrBadConfig, cfg.Cores, cfg.ThreadsPerCore, trace.NoContext)
	}
	if cfg.L1.LineBytes != cfg.L2.LineBytes {
		return nil, fmt.Errorf("%w: L1 lines of %dB and L2 lines of %dB: back-invalidation needs one line size",
			ErrBadConfig, cfg.L1.LineBytes, cfg.L2.LineBytes)
	}
	if cfg.QuantumCycles == 0 {
		return nil, fmt.Errorf("%w: quantum must be positive", ErrBadConfig)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.EventBatch < 0 {
		return nil, fmt.Errorf("%w: EventBatch must be >= 0, got %d",
			ErrBadConfig, cfg.EventBatch)
	}
	s := &System{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
	s.mOps = cfg.Metrics.Counter("sim.ops")
	s.mSwitches = cfg.Metrics.Gauge("sim.ctx_switches")
	s.mMigrations = cfg.Metrics.Gauge("sim.migrations")
	s.mRunNS = cfg.Metrics.Timer("sim.run_ns")
	var out trace.Listener = &s.listeners
	if !cfg.Faults.IsZero() {
		inj, err := faults.NewInjector(cfg.Faults, &s.listeners)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		inj.Instrument(cfg.Metrics)
		s.injector = inj
		out = inj
	}
	s.batcher = trace.NewBatcher(out, cfg.EventBatch)
	s.batcher.Instrument(cfg.Metrics)
	s.bus = bus.New(cfg.Bus, s.batcher)
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("%w: L2: %v", ErrBadConfig, err)
	}
	s.l2 = l2
	s.presence = make([]uint8, l2.NumBlocks())
	for b := cfg.L2.LineBytes; b > 1; b >>= 1 {
		s.lineShift++
	}
	if cfg.Ring.Stops > 0 {
		s.ring = ring.New(cfg.Ring, s.batcher)
	}
	switch cfg.Tracker {
	case TrackerIdeal:
		s.tracker = conflict.MustNewIdeal(s.l2.NumBlocks())
	default:
		t, err := conflict.NewGenerational(conflict.GenerationalConfig{TotalBlocks: s.l2.NumBlocks()})
		if err != nil {
			return nil, fmt.Errorf("%w: tracker: %v", ErrBadConfig, err)
		}
		s.tracker = t
		s.trackGen = t
	}
	for c := 0; c < cfg.Cores; c++ {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("%w: L1: %v", ErrBadConfig, err)
		}
		co := &core{
			id:      c,
			bit:     1 << c,
			l1:      l1,
			l2Block: make([]uint32, l1.NumBlocks()),
			div:     divider.New(cfg.Div, s.batcher),
			tlb:     tlb.New(tlb.DefaultConfig(), s.batcher),
		}
		s.cores = append(s.cores, co)
		for t := 0; t < cfg.ThreadsPerCore; t++ {
			s.contexts = append(s.contexts, &hwContext{
				id:         uint8(c*cfg.ThreadsPerCore + t),
				core:       co,
				quantumEnd: cfg.QuantumCycles,
				heapIdx:    -1,
			})
		}
	}
	return s, nil
}

// MustNew is New for configurations known to be valid (tests, the
// hardcoded defaults); it panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// publishMetrics flushes the accumulated operation count and the
// scheduling counters into the registry. Called at quantum boundaries
// and at quiesce, so a live metrics endpoint tracks the run at OS-tick
// granularity without per-operation atomic traffic.
func (s *System) publishMetrics() {
	if s.mOps == nil {
		return
	}
	s.mOps.Add(s.opCount)
	s.opCount = 0
	s.mSwitches.Set(int64(s.switches))
	s.mMigrations.Set(int64(s.migrations))
}

// FaultStats returns the sensor fault injector's counters and whether
// an injector is configured at all.
func (s *System) FaultStats() (faults.Stats, bool) {
	if s.injector == nil {
		return faults.Stats{}, false
	}
	return s.injector.Stats(), true
}

// AddListener registers a hardware event listener (an auditor, a raw
// recorder, ...). Must be called before Run.
func (s *System) AddListener(l trace.Listener) {
	s.listeners = append(s.listeners, l)
}

// SpawnOption adjusts process placement.
type SpawnOption func(*Process)

// Pin fixes the process to a hardware context; it will never migrate.
// The divider and cache channels pin the trojan and spy onto the two
// hyperthreads of one core, as in the paper.
func Pin(contextID int) SpawnOption {
	return func(p *Process) { p.pinned = contextID }
}

// Spawn registers a program as a software process. Unpinned processes
// are placed on the least-loaded context (ties to the lowest ID).
// Spawn must precede Run.
func (s *System) Spawn(prog Program, opts ...SpawnOption) *Process {
	if s.started {
		panic("sim: Spawn after Run")
	}
	p := &Process{
		id:     len(s.procs),
		name:   prog.Name(),
		prog:   prog,
		pinned: -1,
		sys:    s,
	}
	for _, o := range opts {
		o(p)
	}
	var target *hwContext
	if p.pinned >= 0 {
		if p.pinned >= len(s.contexts) {
			panic(fmt.Sprintf("sim: pin to context %d of %d", p.pinned, len(s.contexts)))
		}
		target = s.contexts[p.pinned]
	} else {
		// Prefer idle cores over idle sibling contexts, as a real
		// scheduler spreads load before doubling up hyperthreads.
		coreLoad := func(c *hwContext) int {
			load := 0
			for _, o := range s.contexts {
				if o.core == c.core {
					load += len(o.runq)
				}
			}
			return load
		}
		target = s.contexts[0]
		bestCore, bestCtx := coreLoad(target), len(target.runq)
		for _, c := range s.contexts[1:] {
			cl, xl := coreLoad(c), len(c.runq)
			if cl < bestCore || (cl == bestCore && xl < bestCtx) {
				target, bestCore, bestCtx = c, cl, xl
			}
		}
	}
	target.runq = append(target.runq, p)
	p.ctx = target
	p.machine = &Machine{proc: p, geo: s.Geometry()}
	s.procs = append(s.procs, p)
	return p
}

// Geometry returns the static machine description.
func (s *System) Geometry() Geometry {
	return Geometry{
		Contexts:       len(s.contexts),
		Cores:          s.cfg.Cores,
		ThreadsPerCore: s.cfg.ThreadsPerCore,
		ClockHz:        s.cfg.ClockHz,
		QuantumCycles:  s.cfg.QuantumCycles,
		LineBytes:      s.cfg.L2.LineBytes,
		L1Sets:         s.cores[0].l1.NumSets(),
		L1Ways:         s.cores[0].l1.Ways(),
		L2Sets:         s.l2.NumSets(),
		L2Ways:         s.l2.Ways(),
		MemCycles:      s.cfg.MemCycles,
		RingStops:      s.cfg.Ring.Stops,
		TLBSets:        s.cores[0].tlb.Config().Sets,
		TLBWays:        s.cores[0].tlb.Config().Ways,
	}
}

// Now returns the minimum clock across contexts that still have work,
// i.e. the global simulated time.
func (s *System) Now() uint64 {
	var now uint64
	first := true
	for _, c := range s.contexts {
		if len(c.runq) == 0 {
			continue
		}
		if first || c.clock < now {
			now = c.clock
			first = false
		}
	}
	return now
}

// Stats reports OS-level scheduling counters.
type SchedStats struct {
	ContextSwitches uint64
	Migrations      uint64
}

// SchedStats returns scheduling counters.
func (s *System) SchedStats() SchedStats {
	return SchedStats{ContextSwitches: s.switches, Migrations: s.migrations}
}

// BusStats exposes the shared bus counters.
func (s *System) BusStats() bus.Stats { return s.bus.Stats() }

// RingStats exposes the ring interconnect counters; ok is false when
// the ring is disabled.
func (s *System) RingStats() (st ring.Stats, ok bool) {
	if s.ring == nil {
		return ring.Stats{}, false
	}
	return s.ring.Stats(), true
}

// L2Stats exposes the shared L2's counters.
func (s *System) L2Stats() cache.Stats {
	return s.l2.Stats()
}
