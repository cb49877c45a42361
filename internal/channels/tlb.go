package channels

import "cchunter/internal/sim"

// The shared-TLB channel (after the accessed-bit TLB channels of
// deermichel/tlbchannels). Trojan and spy must run as hyperthreads of
// one core: the sTLB is per-core. Unlike the binary channels, each slot
// carries a multi-bit *symbol*: the trojan evicts one of tlbGroups
// disjoint TLB-set groups and the spy counts its probe misses per
// group.
const (
	// tlbSymbolBits is the symbol width in bits; the TLB's sets are
	// split into tlbGroups = 2^tlbSymbolBits groups.
	tlbSymbolBits = 2
	tlbGroups     = 1 << tlbSymbolBits
	// tlbRoundsPerSymbol is how many evict/probe rounds reinforce each
	// symbol.
	tlbRoundsPerSymbol = 4
	// tlbMaxBurst caps the per-symbol active phase.
	tlbMaxBurst = 100_000
	// tlbMissLatency is the spy's probe threshold: a probe at least
	// this slow lost its translation to the trojan (it sits between
	// the TLB hit latency and the page-walk latency).
	tlbMissLatency = 60
)

// tlbSymbolSlot returns the slot length: tlbSymbolBits bit slots, so
// BPS stays bits per second.
func (p Protocol) tlbSymbolSlot(geo sim.Geometry) uint64 {
	return tlbSymbolBits * p.slotCycles(geo)
}

// tlbSymbolAt assembles the symbol for slot si from the message bits,
// MSB first, zero-padding a trailing partial symbol. done mirrors
// bitAt: the slot after the last message bit (unless repeating).
func (p Protocol) tlbSymbolAt(si int) (sym int, done bool) {
	if _, d := p.bitAt(si * tlbSymbolBits); d {
		return 0, true
	}
	for k := 0; k < tlbSymbolBits; k++ {
		b, d := p.bitAt(si*tlbSymbolBits + k)
		if d {
			b = 0
		}
		sym = sym<<1 | b
	}
	return sym, false
}

// tlbPage maps (way, set) to a process-private line index whose page
// lands on the given TLB set: line indexes carry the page number in
// their high bits (one page = 64 lines at 4 KiB pages and 64 B lines).
func tlbPage(way, set, sets int) uint64 {
	return uint64(way*sets+set) << 6
}

// TLBTrojan transmits symbol s by filling every way of TLB-set group s
// with its own translations, evicting the spy's. It is a sim.Program
// state machine.
type TLBTrojan struct {
	cfg Protocol

	m         *sim.Machine
	slot      uint64
	round     uint64
	sets      int // TLB sets per group
	ways      int
	si        int // slot (symbol) index
	sym       int // symbol for the current slot
	r         int // round index within the slot
	n         int // probe index within the round
	start     uint64
	pc        int
	groupBase int // first TLB set of the current symbol's group
}

// TLBTrojan states.
const (
	ttSlot  = iota // assemble next symbol, select its group
	ttRound        // wait for the next evict round
	ttProbe        // fill one page of the group
)

// NewTLBTrojan builds the transmitter.
func NewTLBTrojan(p Params) *TLBTrojan {
	p.validate()
	return &TLBTrojan{cfg: p.Protocol}
}

// Name implements sim.Program.
func (t *TLBTrojan) Name() string { return "tlb-trojan" }

// Begin implements sim.Program.
func (t *TLBTrojan) Begin(m *sim.Machine) {
	geo := m.Geometry()
	t.m = m
	t.slot = t.cfg.tlbSymbolSlot(geo)
	t.round = min(t.slot, tlbMaxBurst) / tlbRoundsPerSymbol
	t.sets = geo.TLBSets / tlbGroups
	if t.sets == 0 {
		panic("channels: more symbol groups than TLB sets")
	}
	t.ways = geo.TLBWays
	t.pc = ttSlot
}

// Step implements sim.Program.
func (t *TLBTrojan) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch t.pc {
		case ttSlot:
			sym, done := t.cfg.tlbSymbolAt(t.si)
			if done {
				return false
			}
			t.sym = sym
			t.groupBase = sym * t.sets
			// Slot 0 is the spy's priming slot; symbols start at slot 1.
			t.start = t.cfg.Start + uint64(t.si+1)*t.slot + t.cfg.slotJitter(t.si, t.slot)
			t.r = 0
			t.pc = ttRound

		case ttRound:
			if t.r < tlbRoundsPerSymbol {
				t.n = 0
				t.pc = ttProbe
				*op = sim.Op{Kind: sim.OpWaitUntil, Cycles: t.start + uint64(t.r)*t.round}
				return true
			}
			t.si++
			t.pc = ttSlot

		case ttProbe:
			for t.n < t.sets*t.ways {
				if t.cfg.dutySkip(t.si, t.r*t.sets*t.ways+t.n) {
					t.n++
					continue
				}
				set := t.groupBase + t.n%t.sets
				way := t.n / t.sets
				t.n++
				geo := t.m.Geometry()
				*op = sim.Op{Kind: sim.OpTLBProbe,
					Addr: t.m.PrivateAddr(tlbPage(way, set, geo.TLBSets))}
				return true
			}
			t.r++
			t.pc = ttRound
		}
	}
}

// TLBSpy keeps its own translation in every way of every set and
// probes them each round: the group the trojan filled comes back as
// page walks. Probing re-primes, so one pass serves both roles. It is
// a sim.Program state machine that records tlbGroups samples per
// symbol slot, each group's probe misses.
type TLBSpy struct {
	record
	cfg    Protocol
	m      *sim.Machine
	slot   uint64
	round  uint64
	sets   int // total TLB sets
	ways   int
	misses [tlbGroups]uint64 // per-group miss counts for the current symbol
	si     int
	r      int
	n      int // probe index within the round
	set    int // set of the probe in flight
	start  uint64
	pc     int
}

// TLBSpy states.
const (
	tsPrime     = iota // initial prime of every set and way
	tsSlot             // decode slot bounds
	tsRound            // wait past the trojan's evict phase / record the slot
	tsProbe            // issue one probe
	tsProbeDone        // classify the probe's latency
)

// NewTLBSpy builds the receiver.
func NewTLBSpy(p Params) *TLBSpy {
	p.validate()
	return &TLBSpy{cfg: p.Protocol}
}

// Name implements sim.Program.
func (s *TLBSpy) Name() string { return "tlb-spy" }

// Begin implements sim.Program.
func (s *TLBSpy) Begin(m *sim.Machine) {
	geo := m.Geometry()
	s.m = m
	s.slot = s.cfg.tlbSymbolSlot(geo)
	s.round = min(s.slot, tlbMaxBurst) / tlbRoundsPerSymbol
	s.sets = geo.TLBSets
	s.ways = geo.TLBWays
	if s.sets/tlbGroups == 0 {
		panic("channels: more symbol groups than TLB sets")
	}
	s.pc = tsPrime
}

// probeOp writes the n-th probe of a pass into op, recording its set
// for the classification step.
func (s *TLBSpy) probeOp(op *sim.Op) {
	s.set = s.n % s.sets
	way := s.n / s.sets
	s.n++
	*op = sim.Op{Kind: sim.OpTLBProbe,
		Addr: s.m.PrivateAddr(tlbPage(way, s.set, s.sets))}
}

// Step implements sim.Program.
func (s *TLBSpy) Step(prev sim.OpResult, op *sim.Op) bool {
	for {
		switch s.pc {
		case tsPrime:
			if s.n < s.sets*s.ways {
				s.probeOp(op)
				return true
			}
			s.pc = tsSlot

		case tsSlot:
			if _, done := s.cfg.tlbSymbolAt(s.si); done {
				return false
			}
			s.start = s.cfg.Start + uint64(s.si+1)*s.slot + s.cfg.slotJitter(s.si, s.slot)
			s.misses = [tlbGroups]uint64{}
			s.r = 0
			s.pc = tsRound

		case tsRound:
			if s.r < tlbRoundsPerSymbol {
				s.n = 0
				s.pc = tsProbe
				// Probe halfway into the round, after the trojan's fills.
				*op = sim.Op{Kind: sim.OpWaitUntil,
					Cycles: s.start + uint64(s.r)*s.round + s.round/2}
				return true
			}
			s.samples = append(s.samples, s.misses[:]...)
			s.si++
			s.pc = tsSlot

		case tsProbe:
			if s.n < s.sets*s.ways {
				s.pc = tsProbeDone
				s.probeOp(op)
				return true
			}
			s.r++
			s.pc = tsRound

		case tsProbeDone:
			if prev.Latency >= tlbMissLatency {
				s.misses[s.set/(s.sets/tlbGroups)]++
			}
			s.pc = tsProbe
		}
	}
}
