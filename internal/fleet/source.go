package fleet

import (
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// defaultContexts is the hardware context count every simulated fleet
// host reports — the 4-core, 2-way-SMT machine of the paper's setup.
const defaultContexts = 8

// Profile selects the traffic shape a stream's source generates.
type Profile uint8

const (
	// ProfileBenign emits sparse, aperiodic mixed events — the no-
	// channel baseline a healthy host produces.
	ProfileBenign Profile = iota
	// ProfileBus emits recurrent bus-lock bursts on alternating
	// quanta, the memory-bus covert channel's indicator pattern.
	ProfileBus
	// ProfileDivider emits recurrent divider-contention bursts, the
	// integer-divider channel's pattern.
	ProfileDivider
	// ProfileCache emits phase-alternating conflict misses at a fixed
	// period, the cache channel's oscillation pattern. The period is
	// the stream's correlation signature.
	ProfileCache
)

// Channel names the monitored channel the profile exercises; it is the
// shard key's channel component.
func (p Profile) Channel() string {
	switch p {
	case ProfileBus:
		return "bus"
	case ProfileDivider:
		return "divider"
	case ProfileCache:
		return "cache"
	default:
		return "benign"
	}
}

// source is one stream's deterministic event generator. Everything
// derives from the seed (re-mixed per epoch), so a stream's train —
// and therefore its verdict, absent shedding — is a pure function of
// (seed, profile, period, epoch), independent of scheduling.
type source struct {
	seed    uint64
	profile Profile
	quantum uint64
	period  uint64 // cache oscillation period in cycles

	rng      *stats.RNG
	cycle    uint64
	quantum0 uint64 // first cycle of the current quantum
}

func newSource(seed uint64, p Profile, quantum, period uint64) *source {
	if period < 256 {
		period = 256
	}
	return &source{seed: seed, profile: p, quantum: quantum, period: period}
}

// reset rewinds the source to cycle zero with an epoch-mixed seed.
func (s *source) reset(epoch int) {
	s.rng = stats.NewRNG(deriveSeed(s.seed, 0x5eed, uint64(epoch)))
	s.cycle = 0
	s.quantum0 = 0
}

// genQuantum appends one OS quantum's worth of events to dst and
// advances the source's clock to the next quantum boundary. Cycles are
// strictly monotonic within the stream.
func (s *source) genQuantum(dst []trace.Event) []trace.Event {
	start := s.quantum0
	end := start + s.quantum
	q := start / s.quantum
	cycle := s.cycle
	if cycle < start {
		cycle = start
	}
	for cycle < end {
		switch s.profile {
		case ProfileBus:
			if q%2 == 0 {
				// Burst quantum: dense split-lock traffic.
				cycle += 300 + s.rng.Uint64()%500
				dst = append(dst, trace.Event{
					Cycle: cycle, Kind: trace.KindBusLock,
					Actor: uint8(s.rng.Uint64() % 2),
				})
			} else {
				// Quiet quantum: background-level locks only.
				cycle += 4_000 + s.rng.Uint64()%8_000
				if s.rng.Uint64()%3 == 0 {
					dst = append(dst, trace.Event{
						Cycle: cycle, Kind: trace.KindBusLock,
						Actor: uint8(2 + s.rng.Uint64()%4),
					})
				}
			}
		case ProfileDivider:
			if q%2 == 0 {
				// Burst quantum: contention every 60-180 cycles, several
				// events per ΔT_divider window — the density the
				// likelihood-ratio split needs to separate burst from
				// background.
				cycle += 60 + s.rng.Uint64()%120
				dst = append(dst, trace.Event{
					Cycle: cycle, Kind: trace.KindDivContention,
					Actor: 0, Victim: 1,
				})
			} else {
				cycle += 5_000 + s.rng.Uint64()%9_000
				if s.rng.Uint64()%4 == 0 {
					dst = append(dst, trace.Event{
						Cycle: cycle, Kind: trace.KindDivContention,
						Actor: uint8(2 + s.rng.Uint64()%2), Victim: uint8(4 + s.rng.Uint64()%2),
					})
				}
			}
		case ProfileCache:
			// Prime/probe oscillation: the trojan and spy alternate as
			// evictor every half period, producing the label-series
			// periodicity the oscillation detector keys on.
			cycle += 150 + s.rng.Uint64()%200
			phase := (cycle / (s.period / 2)) % 2
			dst = append(dst, trace.Event{
				Cycle: cycle, Kind: trace.KindConflictMiss,
				Actor: uint8(phase), Victim: uint8(1 - phase),
				Unit: uint32(s.rng.Uint64() % 64),
			})
		default: // ProfileBenign
			// Healthy hosts: unorganized conflict misses with random
			// actor/victim pairs — plenty of cache noise, no periodicity
			// for the oscillation detector and no split-lock or divider
			// contention at all. (At the fleet's compressed quantum a
			// single stray lock per quantum already forms a degenerate
			// two-bin density histogram, so "rare" is not rare enough —
			// a clean host emits none, matching the paper's observation
			// that benign programs essentially never split bus locks.)
			cycle += 1_000 + s.rng.Uint64()%3_000
			r := s.rng.Uint64()
			dst = append(dst, trace.Event{
				Cycle: cycle, Kind: trace.KindConflictMiss,
				Actor: uint8(r >> 8 % defaultContexts), Victim: uint8(r >> 16 % defaultContexts),
				Unit: uint32(r >> 24 % 512),
			})
		}
	}
	s.cycle = cycle
	s.quantum0 = end
	return dst
}
