package channels

import (
	"cchunter/internal/sim"
	"cchunter/internal/stats"
)

// The bus channel's fixed shape.
const (
	// busLockSpacing is the cycle distance between consecutive atomic
	// unaligned accesses during a '1' burst. With the default bus
	// lock occupancy this keeps the bus contended for roughly half of
	// the burst, and puts ~20 lock events into each Δt = 100k-cycle
	// window — the paper's Figure 6a burst bin.
	busLockSpacing = 5_000
	// busMaxBurst caps the burst length within a bit slot: at low
	// bandwidths the trojan transmits its conflicts early in the slot
	// and stays dormant for the rest ("a certain number of conflicts
	// ... frequently followed by longer periods of dormancy", §VI-A).
	busMaxBurst = 1_000_000
	// busSamplesPerBit is how many latency samples the spy takes per
	// bit.
	busSamplesPerBit = 20
)

// BusTrojan transmits the message by modulating memory bus contention.
// It is a sim.Program state machine; the evasion draw happens after the
// slot-start wait, an order the golden corpus pins.
//
// Params.EvasionNoise is the probability that the trojan camouflages a
// '0' slot with a burst of random intensity — the §III evasion
// strategy of "artificially inflating the patterns of random
// conflicts". The paper's point, reproduced by the evasion experiment:
// the spy cannot tell camouflage from signal, so reliability collapses
// long before detection does.
type BusTrojan struct {
	cfg Params

	rng     *stats.RNG
	slot    uint64
	burst   uint64
	i       int    // slot index
	bit     int    // bit for the current slot
	start   uint64 // current slot start cycle
	spacing uint64 // lock spacing for the current burst
	k       uint64 // lock index within the burst
	pc      int
}

// BusTrojan states.
const (
	btSlot  = iota // decode next bit, wait for its slot
	btGate         // evasion/camouflage decision after the slot wait
	btBurst        // wait for the next lock position
	btLock         // issue the bus lock
)

// NewBusTrojan builds the transmitter.
func NewBusTrojan(p Params) *BusTrojan {
	p.validate()
	return &BusTrojan{cfg: p}
}

// Name implements sim.Program.
func (t *BusTrojan) Name() string { return "bus-trojan" }

// Begin implements sim.Program.
func (t *BusTrojan) Begin(m *sim.Machine) {
	geo := m.Geometry()
	t.rng = stats.NewRNG(t.cfg.Seed ^ 0xe7a510)
	t.slot = t.cfg.slotCycles(geo)
	t.burst = min(t.slot, busMaxBurst)
	t.pc = btSlot
}

// Step implements sim.Program.
func (t *BusTrojan) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch t.pc {
		case btSlot:
			bit, done := t.cfg.bitAt(t.i)
			if done {
				return false
			}
			t.bit = bit
			t.start = t.cfg.Start + uint64(t.i)*t.slot + t.cfg.slotJitter(t.i, t.slot)
			t.pc = btGate
			*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: t.start}
			return true

		case btGate:
			t.spacing = t.cfg.dutySpacing(busLockSpacing)
			if t.bit == 0 {
				if t.cfg.EvasionNoise <= 0 || t.rng.Float64() >= t.cfg.EvasionNoise {
					t.i++
					t.pc = btSlot // un-contended bus signals '0'
					continue
				}
				// Camouflage: a burst of random (lower) intensity.
				t.spacing = t.cfg.dutySpacing(busLockSpacing * uint64(1+t.rng.Intn(3)))
			}
			t.k = 0
			t.pc = btBurst

		case btBurst:
			if t.k*t.spacing < t.burst {
				t.pc = btLock
				*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: t.start + t.k*t.spacing}
				return true
			}
			t.i++
			t.pc = btSlot

		case btLock:
			t.k++
			t.pc = btBurst
			*op = sim.Op{Kind: sim.OpAtomicUnaligned}
			return true
		}
	}
}

// BusSpy samples memory access latencies. It is a sim.Program state
// machine that records one sample per bit slot: the latency sum of its
// busSamplesPerBit probes.
type BusSpy struct {
	record
	cfg     Protocol
	m       *sim.Machine
	slot    uint64
	spacing uint64
	probe   uint64
	i       int    // slot index
	k       int    // sample index within the slot
	start   uint64 // current slot start cycle
	total   uint64 // latency accumulator for the slot
	pc      int
}

// BusSpy states.
const (
	bsSlot   = iota // decode slot bounds
	bsSample        // wait for the next sample position / record the slot
	bsLoad          // issue the probing load
	bsAcc           // accumulate the load latency
)

// NewBusSpy builds the receiver.
func NewBusSpy(p Params) *BusSpy {
	p.validate()
	return &BusSpy{cfg: p.Protocol}
}

// Name implements sim.Program.
func (s *BusSpy) Name() string { return "bus-spy" }

// Begin implements sim.Program.
func (s *BusSpy) Begin(m *sim.Machine) {
	geo := m.Geometry()
	s.m = m
	s.slot = s.cfg.slotCycles(geo)
	burst := min(s.slot, busMaxBurst)
	s.spacing = burst / busSamplesPerBit
	if s.spacing == 0 {
		s.spacing = 1
	}
	s.pc = bsSlot
}

// Step implements sim.Program.
func (s *BusSpy) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch s.pc {
		case bsSlot:
			if _, done := s.cfg.bitAt(s.i); done {
				return false
			}
			s.start = s.cfg.Start + uint64(s.i)*s.slot + s.cfg.slotJitter(s.i, s.slot)
			s.total = 0
			s.k = 0
			s.pc = bsSample

		case bsSample:
			if s.k < busSamplesPerBit {
				// Sample a third of the way into each spacing interval so
				// the probes never alias onto the trojan's lock grid.
				s.pc = bsLoad
				*op = sim.Op{Kind: sim.OpWaitUntil,
					Cycles: s.start + uint64(s.k)*s.spacing + s.spacing/3}
				return true
			}
			s.samples = append(s.samples, s.total)
			s.i++
			s.pc = bsSlot

		case bsLoad:
			// A fresh line address misses the whole hierarchy, so the
			// load's latency exposes the bus state.
			s.probe++
			s.pc = bsAcc
			*op = sim.Op{Kind: sim.OpLoad, Addr: s.m.PrivateAddr(1<<30 + s.probe)}
			return true

		case bsAcc:
			s.total += prev.Latency
			s.k++
			s.pc = bsSample
		}
	}
}
