package channels

import (
	"cchunter/internal/sim"
	"cchunter/internal/stats"
)

// cacheReserveLowSets excludes the lowest-numbered cache sets from the
// channel. Real channels calibrate their set groups during the
// synchronization phase and avoid sets that are persistently hot (low
// sets host the hottest shared data in practice): a group that other
// tenants keep replacing cannot carry bits reliably.
const cacheReserveLowSets = 64

// cacheShape is the prime/probe layout both cache programs derive from
// Params. Trojan and spy must share an L2.
type cacheShape struct {
	Protocol
	// sets is the total number of cache sets carrying the channel,
	// split evenly between G1 and G0 ("a total of 512 cache sets were
	// used in G1 and G0"). It must leave most of the cache untouched
	// or the channel's evictions stop being premature (see DESIGN.md).
	sets int
	// rounds is how many prime/probe rounds reinforce each bit; more
	// rounds improve reliability against noise.
	rounds int
	// maxBurst caps the per-bit active phase.
	maxBurst uint64
}

// newCacheShape sizes the rounds to the slot: low-bandwidth bits
// repeat their prime/probe rounds (the "certain number of conflicts
// needed to reliably transmit a bit", §VI-A), which also puts several
// oscillation periods into each observation window. Params.CacheRounds
// overrides the count.
func newCacheShape(p Params) cacheShape {
	p.validate()
	if p.CacheSets <= 0 {
		// The round sizing below divides by the set count.
		panic("channels: cache channel needs CacheSets > 0")
	}
	slot := uint64(2_500_000_000 / p.BPS)
	roundCost := uint64(p.CacheSets) * 2_700 // fill + double probe
	rounds := p.CacheRounds
	if rounds <= 0 {
		rounds = int(slot / (2 * roundCost))
	}
	rounds = min(max(rounds, 1), 8)
	return cacheShape{
		Protocol: p.Protocol,
		sets:     p.CacheSets,
		rounds:   rounds,
		maxBurst: uint64(rounds) * roundCost * 13 / 10,
	}
}

// selectSets returns the G1 and G0 set groups. Both endpoints derive
// them identically from the protocol seed — the paper's "dynamically
// determined group of cache sets ... chosen during the covert channel
// synchronization phase".
func selectSets(seed uint64, used int, geo sim.Geometry) (g1, g0 []uint32) {
	usable := geo.L2Sets - cacheReserveLowSets
	if used < 2 || used > usable {
		panic("channels: CacheSets out of range")
	}
	perm := stats.NewRNG(seed).Perm(usable)
	half := used / 2
	g1 = make([]uint32, half)
	g0 = make([]uint32, half)
	for i := 0; i < half; i++ {
		g1[i] = uint32(perm[i] + cacheReserveLowSets)
		g0[i] = uint32(perm[half+i] + cacheReserveLowSets)
	}
	return g1, g0
}

// roundLen returns the length of one prime/probe round in cycles.
func (c cacheShape) roundLen(slot uint64) uint64 {
	return min(slot, c.maxBurst) / uint64(c.rounds)
}

// CacheTrojan transmits by replacing the blocks of G1 (for '1') or G0
// (for '0'). It is a sim.Program state machine.
type CacheTrojan struct {
	cfg cacheShape

	m      *sim.Machine
	g1, g0 []uint32
	slot   uint64
	round  uint64
	addrs  []uint64
	i      int      // slot index
	r      int      // round index within the slot
	setIdx int      // set index within the round
	group  []uint32 // group carrying the current bit
	start  uint64   // current slot start cycle
	pc     int
}

// CacheTrojan states.
const (
	ctSlot  = iota // decode next bit, select its group
	ctRound        // wait for the next prime round
	ctSet          // replace one set's blocks
)

// NewCacheTrojan builds the transmitter.
func NewCacheTrojan(p Params) *CacheTrojan {
	return &CacheTrojan{cfg: newCacheShape(p)}
}

// Name implements sim.Program.
func (t *CacheTrojan) Name() string { return "cache-trojan" }

// Begin implements sim.Program.
func (t *CacheTrojan) Begin(m *sim.Machine) {
	geo := m.Geometry()
	t.m = m
	t.g1, t.g0 = selectSets(t.cfg.Seed, t.cfg.sets, geo)
	t.slot = t.cfg.slotCycles(geo)
	t.round = t.cfg.roundLen(t.slot)
	t.addrs = make([]uint64, geo.L2Ways)
	t.pc = ctSlot
}

// Step implements sim.Program.
func (t *CacheTrojan) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch t.pc {
		case ctSlot:
			bit, done := t.cfg.bitAt(t.i)
			if done {
				return false
			}
			// Slot 0 is the spy's warm-up prime; transmission starts at
			// slot 1.
			t.start = t.cfg.Start + uint64(t.i+1)*t.slot + t.cfg.slotJitter(t.i, t.slot)
			t.group = t.g1
			if bit == 0 {
				t.group = t.g0
			}
			t.r = 0
			t.pc = ctRound

		case ctRound:
			if t.r < t.cfg.rounds {
				t.setIdx = 0
				t.pc = ctSet
				*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: t.start + uint64(t.r)*t.round}
				return true
			}
			t.i++
			t.pc = ctSlot

		case ctSet:
			for t.setIdx < len(t.group) {
				// Amplitude duty cycle: a keyed (1-DutyFrac) share of the
				// set primes is skipped, thinning the conflict train and
				// varying the events-per-round count the oscillation
				// detector locks onto.
				if t.cfg.dutySkip(t.i, t.r*len(t.group)+t.setIdx) {
					t.setIdx++
					continue
				}
				set := t.group[t.setIdx]
				for w := range t.addrs {
					t.addrs[w] = t.m.L2AddrForSet(set, w)
				}
				t.setIdx++
				*op = sim.Op{Kind: sim.OpLoadN, Addrs: t.addrs}
				return true
			}
			t.r++
			t.pc = ctRound
		}
	}
}

// CacheSpy probes both groups and times them. It is a sim.Program
// state machine that records two samples per bit slot, the G1 and the
// G0 probe latency summed over the slot's rounds. Probing a group is a
// sub-machine (csProbe*) that accumulates each LoadN's latency and then
// jumps to the state stored in afterProbe.
type CacheSpy struct {
	record
	cfg    cacheShape
	m      *sim.Machine
	g1, g0 []uint32
	slot   uint64
	round  uint64
	addrs  []uint64
	i      int    // slot index
	r      int    // round index within the slot
	start  uint64 // current slot start cycle
	lat1   uint64 // accumulated G1 probe latency for the bit
	lat0   uint64 // accumulated G0 probe latency for the bit

	group      []uint32 // group the probe sub-machine is walking
	setIdx     int      // probe position within group
	probeTotal uint64   // probe sub-machine latency accumulator
	afterProbe int      // state to resume once the probe completes
	pc         int
}

// CacheSpy states.
const (
	csWarm      = iota // wait for slot 0, then prime both groups
	csWarmG1           // warm-up: first group
	csWarmG0           // warm-up: second group
	csSlot             // decode slot bounds
	csRound            // wait halfway into the next probe round / record the slot
	csProbeG1          // start the G1 probe
	csProbeG0          // bank G1, start the G0 probe
	csRoundDone        // bank G0, advance the round
	csProbeLoad        // probe sub-machine: issue one set's LoadN
	csProbeAcc         // probe sub-machine: accumulate its latency
)

// NewCacheSpy builds the receiver.
func NewCacheSpy(p Params) *CacheSpy {
	return &CacheSpy{cfg: newCacheShape(p)}
}

// Name implements sim.Program.
func (s *CacheSpy) Name() string { return "cache-spy" }

// Begin implements sim.Program.
func (s *CacheSpy) Begin(m *sim.Machine) {
	geo := m.Geometry()
	s.m = m
	s.g1, s.g0 = selectSets(s.cfg.Seed, s.cfg.sets, geo)
	s.slot = s.cfg.slotCycles(geo)
	s.round = s.cfg.roundLen(s.slot)
	s.addrs = make([]uint64, geo.L2Ways)
	s.pc = csWarm
}

// startProbe arms the probe sub-machine over group, resuming at
// `after` when every set has been touched.
func (s *CacheSpy) startProbe(group []uint32, after int) {
	s.group = group
	s.setIdx = 0
	s.probeTotal = 0
	s.afterProbe = after
	s.pc = csProbeLoad
}

// Step implements sim.Program.
func (s *CacheSpy) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch s.pc {
		case csWarm:
			// Warm-up: prime both groups during slot 0.
			s.pc = csWarmG1
			*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: s.cfg.Start}
			return true

		case csWarmG1:
			s.startProbe(s.g1, csWarmG0)

		case csWarmG0:
			s.startProbe(s.g0, csSlot)

		case csSlot:
			if _, done := s.cfg.bitAt(s.i); done {
				return false
			}
			s.start = s.cfg.Start + uint64(s.i+1)*s.slot + s.cfg.slotJitter(s.i, s.slot)
			s.lat1, s.lat0 = 0, 0
			s.r = 0
			s.pc = csRound

		case csRound:
			if s.r < s.cfg.rounds {
				// Probe halfway through each round, after the trojan's
				// replacements.
				s.pc = csProbeG1
				*op = sim.Op{Kind: sim.OpWaitUntil,
					Cycles: s.start + uint64(s.r)*s.round + s.round/2}
				return true
			}
			s.samples = append(s.samples, s.lat1, s.lat0)
			s.i++
			s.pc = csSlot

		case csProbeG1:
			s.startProbe(s.g1, csProbeG0)

		case csProbeG0:
			s.lat1 += s.probeTotal
			s.startProbe(s.g0, csRoundDone)

		case csRoundDone:
			s.lat0 += s.probeTotal
			s.r++
			s.pc = csRound

		case csProbeLoad:
			if s.setIdx < len(s.group) {
				set := s.group[s.setIdx]
				for w := range s.addrs {
					s.addrs[w] = s.m.L2AddrForSet(set, w)
				}
				s.setIdx++
				s.pc = csProbeAcc
				*op = sim.Op{Kind: sim.OpLoadN, Addrs: s.addrs}
				return true
			}
			s.pc = s.afterProbe

		case csProbeAcc:
			s.probeTotal += prev.Latency
			s.pc = csProbeLoad
		}
	}
}
