package channels

import "cchunter/internal/sim"

// The ring-interconnect channel (after the lord-of-the-ring cross-core
// attacks). Trojan and spy run on *different cores* whose ring paths to
// a common LLC slice overlap: with the default four-stop ring the
// trojan on core 0 and the spy on core 1 both route clockwise to the
// slice two stops from the trojan, sharing the spy-side segment.
const (
	// ringLinesPerSide is each endpoint's working-set size in cache
	// lines. All lines map to one L1 set (more lines than L1 ways, so
	// every access misses L1 and transits the ring) and to per-line L2
	// sets (so after warm-up every access is an L2 hit with a fixed,
	// deterministic latency).
	ringLinesPerSide = 16
	// ringMaxBurst caps the per-bit active phase.
	ringMaxBurst = 500_000
)

// ringLineIndex maps working-set slot j of a program to a private line
// index that (a) keeps every line in one L1 set — the low L1-set bits
// are the constant `slice` — and (b) lands on ring slice `slice`, for
// any power-of-two L1 set count that is a multiple of the stop count.
func ringLineIndex(j, l1Sets, slice int) uint64 {
	return uint64(j*l1Sets + slice)
}

// ringTargetSlice picks the contended slice: the stop diametrically
// across from the trojan's core-0 stop, so the trojan's clockwise path
// covers the spy's (core 1) single clockwise hop into the slice.
func ringTargetSlice(stops int) int {
	return stops / 2
}

// RingTrojan transmits by hammering loads across the ring into the
// shared slice during '1' slots, occupying the ring segments the spy's
// probes must cross. It is a sim.Program state machine.
type RingTrojan struct {
	cfg Protocol

	m     *sim.Machine
	addrs []uint64 // working-set addresses, precomputed at Begin
	slot  uint64
	burst uint64
	slice int
	i     int    // slot index
	bit   int    // bit for the current slot
	j     int    // working-set cursor
	start uint64 // current slot start cycle
	now   uint64 // last observed clock
	pc    int
}

// RingTrojan states.
const (
	rtSlot     = iota // decode next bit, wait for its slot
	rtGate            // skip '0' slots after the slot wait
	rtLoop            // burst-bound check
	rtLoad            // one load through the ring
	rtLoadDone        // record the clock, pace the evader's duty gap
	rtGapDone         // return from the duty-cycle idle gap
)

// NewRingTrojan builds the transmitter.
func NewRingTrojan(p Params) *RingTrojan {
	p.validate()
	return &RingTrojan{cfg: p.Protocol}
}

// Name implements sim.Program.
func (t *RingTrojan) Name() string { return "ring-trojan" }

// Begin implements sim.Program.
func (t *RingTrojan) Begin(m *sim.Machine) {
	geo := m.Geometry()
	if geo.RingStops <= 0 {
		panic("channels: ring channel needs the ring interconnect enabled")
	}
	t.m = m
	t.slot = t.cfg.slotCycles(geo)
	t.burst = min(t.slot, ringMaxBurst)
	t.slice = ringTargetSlice(geo.RingStops)
	t.addrs = ringWorkingSet(m, geo.L1Sets, t.slice)
	t.pc = rtSlot
}

// ringWorkingSet precomputes the endpoint's probe addresses once at
// Begin, so the per-load addr step is a table read instead of a
// geometry fetch plus address arithmetic.
func ringWorkingSet(m *sim.Machine, l1Sets, slice int) []uint64 {
	addrs := make([]uint64, ringLinesPerSide)
	for j := range addrs {
		addrs[j] = m.PrivateAddr(ringLineIndex(j, l1Sets, slice))
	}
	return addrs
}

// addr returns the next working-set address, cycling the set so every
// load misses L1 and transits the ring.
func (t *RingTrojan) addr() uint64 {
	a := t.addrs[t.j]
	t.j++
	if t.j == len(t.addrs) {
		t.j = 0
	}
	return a
}

// Step implements sim.Program.
func (t *RingTrojan) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch t.pc {
		case rtSlot:
			bit, done := t.cfg.bitAt(t.i)
			if done {
				return false
			}
			t.bit = bit
			t.start = t.cfg.Start + uint64(t.i)*t.slot + t.cfg.slotJitter(t.i, t.slot)
			t.pc = rtGate
			*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: t.start}
			return true

		case rtGate:
			t.now = prev.Now
			if t.bit == 0 {
				t.i++
				t.pc = rtSlot // quiet ring signals '0'
				continue
			}
			t.pc = rtLoop

		case rtLoop:
			if t.now < t.start+t.burst {
				t.pc = rtLoad
				continue
			}
			t.i++
			t.pc = rtSlot

		case rtLoad:
			t.pc = rtLoadDone
			*op = sim.Op{Kind: sim.OpLoad, Addr: t.addr()}
			return true

		case rtLoadDone:
			t.now = prev.Now
			if gap := t.cfg.dutyGap(prev.Latency); gap > 0 {
				t.pc = rtGapDone
				*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: t.now + gap}
				return true
			}
			t.pc = rtLoop

		case rtGapDone:
			t.now = prev.Now
			t.pc = rtLoop
		}
	}
}

// RingSpy times its own ring transits into the shared slice: a probe
// that waits on a segment the trojan occupies comes back slower than
// the calibrated uncontended baseline. It is a sim.Program state
// machine that records two samples per bit slot: the probes slower
// than the baseline, and all probes.
type RingSpy struct {
	record
	cfg    Protocol
	m      *sim.Machine
	addrs  []uint64 // working-set addresses, precomputed at Begin
	slot   uint64
	burst  uint64
	slice  int
	base   uint64 // calibrated uncontended probe latency
	i      int    // slot index
	j      int    // working-set cursor
	w      int    // warm-up pass cursor
	start  uint64 // current slot start cycle
	now    uint64 // last observed clock
	probes uint64 // probes this slot
	slow   uint64 // probes slower than base this slot
	pc     int
}

// RingSpy states.
const (
	rsWarm     = iota // touch the working set twice, calibrate base
	rsWarmDone        // record a warm-pass probe's latency
	rsSlot            // decode slot bounds, wait for the slot
	rsGate            // reset the slot's accumulators
	rsLoop            // burst-bound check / record the slot
	rsLoadDone        // classify one probe's latency
)

// NewRingSpy builds the receiver.
func NewRingSpy(p Params) *RingSpy {
	p.validate()
	return &RingSpy{cfg: p.Protocol}
}

// Name implements sim.Program.
func (s *RingSpy) Name() string { return "ring-spy" }

// Begin implements sim.Program.
func (s *RingSpy) Begin(m *sim.Machine) {
	geo := m.Geometry()
	if geo.RingStops <= 0 {
		panic("channels: ring channel needs the ring interconnect enabled")
	}
	s.m = m
	s.slot = s.cfg.slotCycles(geo)
	s.burst = min(s.slot, ringMaxBurst)
	s.slice = ringTargetSlice(geo.RingStops)
	s.addrs = ringWorkingSet(m, geo.L1Sets, s.slice)
	s.pc = rsWarm
}

func (s *RingSpy) addr() uint64 {
	a := s.addrs[s.j]
	s.j++
	if s.j == len(s.addrs) {
		s.j = 0
	}
	return a
}

// Step implements sim.Program.
func (s *RingSpy) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch s.pc {
		case rsWarm:
			// Two passes over the working set before the first slot: the
			// first fills the L2, the second calibrates the uncontended
			// baseline. The minimum second-pass latency wins — contention
			// only ever adds wait cycles, so the floor is the uncontended
			// L2-resident transit even if the trojan is already active.
			if s.w < 2*ringLinesPerSide {
				s.w++
				s.pc = rsWarmDone
				*op = sim.Op{Kind: sim.OpLoad, Addr: s.addr()}
				return true
			}
			s.pc = rsSlot

		case rsWarmDone:
			if s.w > ringLinesPerSide { // second pass: L2-resident
				if s.base == 0 || prev.Latency < s.base {
					s.base = prev.Latency
				}
			}
			s.pc = rsWarm

		case rsSlot:
			if _, done := s.cfg.bitAt(s.i); done {
				return false
			}
			s.start = s.cfg.Start + uint64(s.i)*s.slot + s.cfg.slotJitter(s.i, s.slot)
			s.pc = rsGate
			*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: s.start}
			return true

		case rsGate:
			s.now = prev.Now
			s.probes, s.slow = 0, 0
			s.pc = rsLoop

		case rsLoop:
			if s.now < s.start+s.burst {
				s.pc = rsLoadDone
				*op = sim.Op{Kind: sim.OpLoad, Addr: s.addr()}
				return true
			}
			s.samples = append(s.samples, s.slow, s.probes)
			s.i++
			s.pc = rsSlot

		case rsLoadDone:
			s.now = prev.Now
			s.probes++
			if prev.Latency > s.base {
				s.slow++
			}
			s.pc = rsLoop
		}
	}
}
