package channels

import "cchunter/internal/sim"

// The divider channel's fixed shape. Trojan and spy must be pinned
// onto the two hyperthreads of one core: the divider bank is per-core.
// With the default 5-cycle divider, saturating trojan and spy threads
// put ~90-100 cross-context wait events into each Δt = 500-cycle
// window, Figure 6b's burst bins.
const (
	// divMaxBurst caps the contention burst within a bit slot.
	divMaxBurst = 50_000
	// divOpsPerSample is the constant number of divisions in each of
	// the spy's timed loop iterations (§IV-A: "executing loop
	// iterations with a constant number of integer division operations
	// and timing them"). The spy iterates continuously through the
	// burst.
	divOpsPerSample = 20
)

// DivTrojan transmits by saturating the core's division units. It is
// a sim.Program state machine.
type DivTrojan struct {
	cfg Protocol

	slot   uint64
	burst  uint64
	i      int    // slot index
	bit    int    // bit for the current slot
	start  uint64 // current slot start cycle
	now    uint64 // last observed clock
	divLat uint64 // latency of the last division (evader pacing)
	pc     int
}

// DivTrojan states.
const (
	dtSlot    = iota // decode next bit, wait for its slot
	dtGate           // skip '0' slots after the slot wait
	dtLoop           // burst-bound check
	dtDiv            // one division (followed by a clock read)
	dtNow            // issue the clock read
	dtNowDone        // record the clock read
	dtGapDone        // return from the evader's duty-cycle idle gap
)

// NewDivTrojan builds the transmitter.
func NewDivTrojan(p Params) *DivTrojan {
	p.validate()
	return &DivTrojan{cfg: p.Protocol}
}

// Name implements sim.Program.
func (t *DivTrojan) Name() string { return "div-trojan" }

// Begin implements sim.Program.
func (t *DivTrojan) Begin(m *sim.Machine) {
	geo := m.Geometry()
	t.slot = t.cfg.slotCycles(geo)
	t.burst = min(t.slot, divMaxBurst)
	t.pc = dtSlot
}

// Step implements sim.Program.
func (t *DivTrojan) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch t.pc {
		case dtSlot:
			bit, done := t.cfg.bitAt(t.i)
			if done {
				return false
			}
			t.bit = bit
			t.start = t.cfg.Start + uint64(t.i)*t.slot + t.cfg.slotJitter(t.i, t.slot)
			t.pc = dtGate
			*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: t.start}
			return true

		case dtGate:
			t.now = prev.Now
			if t.bit == 0 {
				t.i++
				t.pc = dtSlot // empty loop: division units stay un-contended
				continue
			}
			t.pc = dtLoop

		case dtLoop:
			// Individual (unbatched) divisions so the two hyperthreads'
			// instructions interleave cycle by cycle, as on real SMT.
			if t.now < t.start+t.burst {
				t.pc = dtDiv
				continue
			}
			t.i++
			t.pc = dtSlot

		case dtDiv:
			t.pc = dtNow
			*op = sim.Op{Kind: sim.OpDiv}
			return true

		case dtNow:
			t.divLat = prev.Latency
			t.pc = dtNowDone
			*op = sim.Op{Kind: sim.OpNow}
			return true

		case dtNowDone:
			t.now = prev.Now
			if gap := t.cfg.dutyGap(t.divLat); gap > 0 {
				// Amplitude duty cycle: idle after each division so the
				// contention rate scales to DutyFrac.
				t.pc = dtGapDone
				*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: t.now + gap}
				return true
			}
			t.pc = dtLoop

		case dtGapDone:
			t.now = prev.Now
			t.pc = dtLoop
		}
	}
}

// DivSpy times constant-length division loops. It is a sim.Program
// state machine that records two samples per bit slot: the summed
// loop latency and the number of loops.
type DivSpy struct {
	record
	cfg   Protocol
	slot  uint64
	burst uint64
	i     int    // slot index
	j     int    // division index within the sample
	start uint64 // current slot start cycle
	now   uint64 // last observed clock
	t0    uint64 // sample start clock
	total uint64 // accumulated sample latency
	iters uint64 // samples taken this slot
	pc    int
}

// DivSpy states.
const (
	dsSlot    = iota // decode slot bounds, wait for the slot
	dsGate           // initialize the slot's accumulators
	dsLoop           // burst-bound check / record the slot
	dsDiv            // the divOpsPerSample division loop
	dsNow            // issue the sample's closing clock read
	dsNowDone        // record the sample latency
)

// NewDivSpy builds the receiver.
func NewDivSpy(p Params) *DivSpy {
	p.validate()
	return &DivSpy{cfg: p.Protocol}
}

// Name implements sim.Program.
func (s *DivSpy) Name() string { return "div-spy" }

// Begin implements sim.Program.
func (s *DivSpy) Begin(m *sim.Machine) {
	geo := m.Geometry()
	s.slot = s.cfg.slotCycles(geo)
	s.burst = min(s.slot, divMaxBurst)
	s.pc = dsSlot
}

// Step implements sim.Program.
func (s *DivSpy) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch s.pc {
		case dsSlot:
			if _, done := s.cfg.bitAt(s.i); done {
				return false
			}
			s.start = s.cfg.Start + uint64(s.i)*s.slot + s.cfg.slotJitter(s.i, s.slot)
			s.pc = dsGate
			*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: s.start}
			return true

		case dsGate:
			s.now = prev.Now
			s.total, s.iters = 0, 0
			s.pc = dsLoop

		case dsLoop:
			if s.now < s.start+s.burst {
				s.t0 = s.now
				s.j = 0
				s.pc = dsDiv
				continue
			}
			s.samples = append(s.samples, s.total, s.iters)
			s.i++
			s.pc = dsSlot

		case dsDiv:
			if s.j < divOpsPerSample {
				s.j++
				*op = sim.Op{Kind: sim.OpDiv}
				return true
			}
			s.pc = dsNow

		case dsNow:
			s.pc = dsNowDone
			*op = sim.Op{Kind: sim.OpNow}
			return true

		case dsNowDone:
			s.now = prev.Now
			s.total += s.now - s.t0
			s.iters++
			s.pc = dsLoop
		}
	}
}
