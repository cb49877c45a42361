// Package workload provides synthetic models of the benign programs
// the paper uses for interference and false-alarm testing (§VI-D):
// CPU-intensive SPEC2006 members (gobmk, sjeng, bzip2, h264ref, mcf),
// the Stream memory benchmark, and Filebench's mailserver and
// webserver personalities.
//
// The models are not instruction-accurate; they reproduce the traits
// the detection problem cares about — how often a program locks the
// memory bus, how hard it leans on the divider, how it walks the
// cache, and how bursty it is — using the calibration targets visible
// in the paper's Figure 14 histograms (e.g. mailserver's second
// distribution at density bins 5–8 whose likelihood ratio stays below
// 0.5).
package workload

import (
	"cchunter/internal/sim"
	"cchunter/internal/stats"
)

// Spec parameterizes one synthetic program.
type Spec struct {
	// Name labels the process.
	Name string
	// ComputeCycles is the mean computation per iteration.
	ComputeCycles uint64
	// ComputeJitter is the relative jitter on ComputeCycles (0..1).
	ComputeJitter float64
	// Lines is how many memory lines an iteration touches (batched).
	Lines int
	// WorkingSetLines bounds the random working set; 0 disables
	// memory traffic.
	WorkingSetLines int
	// Streaming walks the working set sequentially (Stream-like)
	// instead of at random.
	Streaming bool
	// Divs is the number of integer divisions per iteration (batched).
	Divs int
	// AtomicProb is the probability that an iteration issues one
	// atomic unaligned access (a bus lock): legacy synchronization in
	// real code.
	AtomicProb float64
	// BurstIters groups iterations into bursts of roughly this size
	// separated by idle gaps; 0 runs continuously.
	BurstIters int
	// IdleCycles is the mean idle gap between bursts.
	IdleCycles uint64
	// PeriodicSets makes iterations walk this many L2 sets in cyclic
	// order (webserver's directory-tree sweep) instead of random
	// working-set lines; a small jitter keeps the periodicity from
	// being machine-perfect.
	PeriodicSets int
	// HotLines is a small re-referenced region (loop indices, scalars,
	// metadata) touched every iteration. When bulk traffic — the
	// program's own or a sibling's — thrashes its sets, the re-access
	// is a genuine conflict miss: the benign source of the paper's
	// "some regular bursts and conflict cache misses".
	HotLines int
	// StormEvery, when non-zero, schedules a lock storm roughly every
	// StormEvery cycles: StormLocks atomic unaligned accesses spaced
	// StormSpacing apart — mailserver's fsync flurries, which give its
	// bus-lock histogram the paper's second distribution around
	// density bins 5–8 (at a likelihood ratio below 0.5).
	StormEvery   uint64
	StormLocks   int
	StormSpacing uint64
}

// program is the generic Spec interpreter, written as a resumable
// sim.Program state machine: each Step call advances through the
// states below until the next machine operation is decoded. The state
// progression and — critically — the RNG draw order are pinned by the
// golden corpus: a sleep of d cycles is two ops, Now then WaitUntil,
// with d drawn before either, and the storm-renewal draw happens after
// its Now op.
type program struct {
	spec Spec
	seed uint64

	m   *sim.Machine
	rng *stats.RNG
	geo sim.Geometry

	addrs         []uint64
	cursor        uint64 // streaming cursor
	periodic      int    // periodic set cursor (resettable per burst)
	periodicTotal int    // monotonic periodic touch counter
	iterations    int
	nextStorm     uint64

	burst, b int
	stormN   int    // locks remaining in the current storm
	sleepDur uint64 // drawn Sleep duration awaiting its WaitUntil
	pc       int
}

// Step states. Cases without an op fall through to the next state
// inside Step's loop.
const (
	wlBurstHeader   = iota // draw burst length / periodic restart
	wlCompute              // optional Compute op
	wlMem                  // optional working-set LoadN
	wlHot                  // optional hot-region LoadN
	wlDivs                 // optional DivN
	wlAtomic               // optional AtomicUnaligned
	wlStormNow             // Now op opening the storm check
	wlStormCheck           // compare Now against nextStorm
	wlStormLock            // one storm AtomicUnaligned
	wlStormGapNow          // Now op of the intra-storm Sleep
	wlStormGapWait         // WaitUntil op of the intra-storm Sleep
	wlStormRenewNow        // Now op feeding the nextStorm draw
	wlStormRenew           // nextStorm draw (no op)
	wlIterEnd              // iteration bookkeeping
	wlIdleNow              // Now op of the inter-burst Sleep
	wlIdleWait             // WaitUntil op of the inter-burst Sleep
)

// New builds a sim.Program from a spec; seed individualizes instances
// of the same spec. The returned program holds per-run state: spawn
// each instance into exactly one process.
func New(spec Spec, seed uint64) sim.Program {
	if spec.Name == "" {
		panic("workload: spec needs a name")
	}
	return &program{spec: spec, seed: seed}
}

// Name implements sim.Program.
func (p *program) Name() string { return p.spec.Name }

// Begin implements sim.Program.
func (p *program) Begin(m *sim.Machine) {
	p.m = m
	p.rng = stats.NewRNG(p.seed ^ uint64(m.PID())<<32)
	p.geo = m.Geometry()
	p.addrs = make([]uint64, 0, p.spec.Lines)
	p.nextStorm = p.spec.StormEvery
	p.pc = wlBurstHeader
}

// Step implements sim.Program.
func (p *program) Step(prev sim.OpResult, op *sim.Op) bool {
	m, rng, spec := p.m, p.rng, &p.spec
	for {
		switch p.pc {
		case wlBurstHeader:
			p.burst = spec.BurstIters
			if p.burst <= 0 {
				p.burst = 1
			} else {
				p.burst = p.burst/2 + rng.Intn(p.burst) // ragged burst lengths
			}
			if spec.PeriodicSets > 0 && spec.BurstIters > 0 {
				// Each burst opens a different file in the tree: the sweep
				// restarts at a random position, so periodicity holds only
				// within a burst — the paper's webserver shows exactly this
				// brief periodicity that dies out at longer lags.
				p.periodic = rng.Intn(spec.PeriodicSets)
			}
			p.b = 0
			p.pc = wlCompute

		case wlCompute:
			if p.b >= p.burst {
				p.pc = wlIdleNow
				continue
			}
			if spec.ComputeCycles > 0 {
				c := float64(spec.ComputeCycles)
				if spec.ComputeJitter > 0 {
					c *= 1 - spec.ComputeJitter + 2*spec.ComputeJitter*rng.Float64()
				}
				p.pc = wlMem
				*op = sim.Op{Kind: sim.OpCompute, Cycles: uint64(c)}
				return true
			}
			p.pc = wlMem

		case wlMem:
			// Real requests are ragged: file sizes, record counts and
			// block runs vary per iteration. The jitter also prevents
			// two paired instances from alternating in lockstep, which
			// would fabricate run-length periodicity no real pair has.
			n := 0
			if spec.Lines > 0 {
				n = spec.Lines/2 + rng.Intn(spec.Lines+1)
			}
			p.pc = wlHot
			if n > 0 && (spec.WorkingSetLines > 0 || spec.PeriodicSets > 0) {
				addrs := p.addrs[:0]
				switch {
				case spec.PeriodicSets > 0:
					// Walk the "directory tree": consecutive sets with
					// occasional jitter; successive sweeps read different
					// blocks of each file (the way index advances per
					// sweep, so working pressure builds across sweeps
					// rather than within one).
					for i := 0; i < n; i++ {
						set := uint32(p.periodic % spec.PeriodicSets)
						if rng.Float64() < 0.08 {
							set = uint32(rng.Intn(spec.PeriodicSets))
						}
						way := (p.periodicTotal / spec.PeriodicSets) % p.geo.L2Ways
						addrs = append(addrs, m.L2AddrForSet(set%uint32(p.geo.L2Sets), way))
						p.periodic++
						p.periodicTotal++
					}
				case spec.Streaming:
					for i := 0; i < n; i++ {
						addrs = append(addrs, m.PrivateAddr(p.cursor%uint64(spec.WorkingSetLines)))
						p.cursor++
					}
				default:
					for i := 0; i < n; i++ {
						addrs = append(addrs, m.PrivateAddr(uint64(rng.Intn(spec.WorkingSetLines))))
					}
				}
				p.addrs = addrs
				*op = sim.Op{Kind: sim.OpLoadN, Addrs: addrs}
				return true
			}

		case wlHot:
			p.pc = wlDivs
			if spec.HotLines > 0 {
				addrs := p.addrs[:0]
				for i := 0; i < 8; i++ {
					addrs = append(addrs, m.PrivateAddr(1<<32|uint64((p.iterations*8+i)%spec.HotLines)))
				}
				p.addrs = addrs
				*op = sim.Op{Kind: sim.OpLoadN, Addrs: addrs}
				return true
			}

		case wlDivs:
			p.pc = wlAtomic
			if spec.Divs > 0 {
				*op = sim.Op{Kind: sim.OpDivN, Count: spec.Divs}
				return true
			}

		case wlAtomic:
			p.pc = wlStormNow
			if spec.AtomicProb > 0 && rng.Float64() < spec.AtomicProb {
				*op = sim.Op{Kind: sim.OpAtomicUnaligned}
				return true
			}

		case wlStormNow:
			if spec.StormEvery > 0 {
				p.pc = wlStormCheck
				*op = sim.Op{Kind: sim.OpNow}
				return true
			}
			p.pc = wlIterEnd

		case wlStormCheck:
			if prev.Now >= p.nextStorm {
				p.stormN = spec.StormLocks/2 + rng.Intn(spec.StormLocks)
				p.pc = wlStormLock
			} else {
				p.pc = wlIterEnd
			}

		case wlStormLock:
			if p.stormN > 0 {
				p.stormN--
				if spec.StormSpacing > 0 {
					p.pc = wlStormGapNow
				} else {
					p.pc = wlStormLock
				}
				*op = sim.Op{Kind: sim.OpAtomicUnaligned}
				return true
			}
			p.pc = wlStormRenewNow

		case wlStormGapNow:
			p.sleepDur = spec.StormSpacing/2 + uint64(rng.Intn(int(spec.StormSpacing)))
			p.pc = wlStormGapWait
			*op = sim.Op{Kind: sim.OpNow}
			return true

		case wlStormGapWait:
			p.pc = wlStormLock
			*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: prev.Now + p.sleepDur}
			return true

		case wlStormRenewNow:
			p.pc = wlStormRenew
			*op = sim.Op{Kind: sim.OpNow}
			return true

		case wlStormRenew:
			p.nextStorm = prev.Now + spec.StormEvery/2 + uint64(rng.Intn(int(spec.StormEvery)))
			p.pc = wlIterEnd

		case wlIterEnd:
			p.iterations++
			p.b++
			p.pc = wlCompute

		case wlIdleNow:
			if spec.IdleCycles > 0 {
				p.sleepDur = uint64(float64(spec.IdleCycles) * (0.5 + rng.Float64()))
				p.pc = wlIdleWait
				*op = sim.Op{Kind: sim.OpNow}
				return true
			}
			p.pc = wlBurstHeader

		case wlIdleWait:
			p.pc = wlBurstHeader
			*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: prev.Now + p.sleepDur}
			return true
		}
	}
}

// Gobmk models SPEC2006 go-playing search: CPU-heavy with pointer-chasing
// loads and noticeable legacy-atomic bus traffic ("numerous repeated
// accesses to the memory bus").
func Gobmk() Spec {
	return Spec{
		Name:            "gobmk",
		ComputeCycles:   40_000,
		ComputeJitter:   0.5,
		Lines:           24,
		WorkingSetLines: 32_768, // 2 MiB
		AtomicProb:      0.08,
		HotLines:        64,
	}
}

// Sjeng models SPEC2006 chess search: like gobmk with a smaller
// working set.
func Sjeng() Spec {
	return Spec{
		Name:            "sjeng",
		ComputeCycles:   30_000,
		ComputeJitter:   0.5,
		Lines:           16,
		WorkingSetLines: 16_384,
		AtomicProb:      0.06,
	}
}

// Bzip2 models SPEC2006 compression: blocks of arithmetic with a
// significant number of integer divisions.
func Bzip2() Spec {
	return Spec{
		Name:            "bzip2",
		ComputeCycles:   10_000,
		ComputeJitter:   0.4,
		Lines:           16,
		WorkingSetLines: 8_192,
		Divs:            200,
	}
}

// H264ref models SPEC2006 video encoding: divisions in rate control
// plus strided memory.
func H264ref() Spec {
	return Spec{
		Name:            "h264ref",
		ComputeCycles:   12_000,
		ComputeJitter:   0.4,
		Lines:           24,
		WorkingSetLines: 16_384,
		Divs:            256,
	}
}

// Mcf models SPEC2006 network simplex: memory-bound random access.
func Mcf() Spec {
	return Spec{
		Name:            "mcf",
		ComputeCycles:   8_000,
		ComputeJitter:   0.3,
		Lines:           48,
		WorkingSetLines: 131_072, // 8 MiB: misses dominate
		HotLines:        128,
	}
}

// Stream models McCalpin's STREAM: long sequential sweeps that are
// sized to be cache-competitive, so that two instances sharing an L2
// evict each other's arrays before they cycle back — genuine conflict
// misses, unlike a working set so large that every miss is a capacity
// miss the trackers rightly ignore.
func Stream() Spec {
	return Spec{
		Name:            "stream",
		ComputeCycles:   4_000,
		ComputeJitter:   0.1,
		Lines:           64,
		WorkingSetLines: 12_288, // 768 KiB per instance vs a 1 MiB L2
		Streaming:       true,
		HotLines:        512,
	}
}

// Mailserver models Filebench's mailserver: multi-threaded
// create-append-sync/read/delete bursts in one directory. The sync
// path issues lock-prefixed operations, so bursts carry bus locks of
// varying intensity — the paper's "second distribution between
// histogram bins #5 and #8" with likelihood ratio below 0.5.
func Mailserver() Spec {
	return Spec{
		Name:            "mailserver",
		ComputeCycles:   8_000,
		ComputeJitter:   0.6,
		Lines:           32,
		WorkingSetLines: 65_536,
		AtomicProb:      0.04, // steady trickle: density-1..3 windows
		StormEvery:      2_000_000,
		StormLocks:      10, // fsync flurry: density-5..8 windows
		StormSpacing:    14_000,
	}
}

// Webserver models Filebench's webserver: open-read-close sweeps over
// a directory tree plus a log append — a roughly periodic cache walk
// (the paper sees a brief periodicity between lags 120 and 180 that
// dies out past 180).
func Webserver() Spec {
	return Spec{
		Name:          "webserver",
		ComputeCycles: 10_000,
		ComputeJitter: 0.4,
		Lines:         24,
		PeriodicSets:  150,
		BurstIters:    10, // ~1.5 sweeps of the tree per request burst
		IdleCycles:    400_000,
	}
}

// Tenant models a light cloud co-tenant: short request bursts over a
// small, hot file/object cache (a 64-set footprint). Two tenants
// contest those sets continuously, producing a steady trickle of
// conflict misses whose footprint overlaps only a sliver of a covert
// channel's sets — the interference regime of the paper's
// low-bandwidth study (§VI-A).
func Tenant() Spec {
	return Spec{
		Name:          "tenant",
		ComputeCycles: 48_000,
		ComputeJitter: 0.5,
		Lines:         2,
		PeriodicSets:  64,
	}
}

// All returns every named spec, keyed by name.
func All() map[string]Spec {
	specs := []Spec{Gobmk(), Sjeng(), Bzip2(), H264ref(), Mcf(), Stream(), Mailserver(), Webserver(), Tenant()}
	out := make(map[string]Spec, len(specs))
	for _, s := range specs {
		out[s.Name] = s
	}
	return out
}

// Background returns a light noise process — the "few other active
// processes" the threat model requires alongside the trojan and spy.
func Background(i int) Spec {
	// Small working sets stay cache-resident: the noise such processes
	// inject into the conflict-miss train is the light interference
	// that shifts the paper's autocorrelation peak from 512 to 533,
	// not a flood that drowns the channel.
	return Spec{
		Name:            "background",
		ComputeCycles:   200_000 + uint64(i)*10_000,
		ComputeJitter:   0.6,
		Lines:           1,
		WorkingSetLines: 32,
		Divs:            4,
	}
}
