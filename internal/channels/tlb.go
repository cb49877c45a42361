package channels

import "cchunter/internal/sim"

// TLBConfig configures the shared-TLB covert channel (after the
// accessed-bit TLB channels of deermichel/tlbchannels). Trojan and spy
// must run as hyperthreads of one core: the sTLB is per-core. Unlike
// the binary channels, each slot carries a multi-bit *symbol*: the
// trojan evicts one of 2^SymbolBits disjoint TLB-set groups and the
// spy decodes the symbol as the group with the most probe misses.
type TLBConfig struct {
	Protocol
	// SymbolBits is the symbol width in bits; the TLB's sets are split
	// into 2^SymbolBits groups.
	SymbolBits int
	// RoundsPerSymbol is how many evict/probe rounds reinforce each
	// symbol.
	RoundsPerSymbol int
	// MaxBurstCycles caps the per-symbol active phase.
	MaxBurstCycles uint64
	// MissLatency is the spy's probe threshold: a probe at least this
	// slow lost its translation to the trojan (sits between the TLB
	// hit latency and the page-walk latency).
	MissLatency uint64
}

// DefaultTLBConfig returns a TLB channel carrying message bits at bps
// bits per second, two bits per symbol.
func DefaultTLBConfig(message []int, bps float64) TLBConfig {
	return TLBConfig{
		Protocol:        Protocol{Message: message, BPS: bps, Start: 0, Seed: 1},
		SymbolBits:      2,
		RoundsPerSymbol: 4,
		MaxBurstCycles:  100_000,
		MissLatency:     60,
	}
}

// groups returns the symbol alphabet size.
func (cfg TLBConfig) groups() int { return 1 << cfg.SymbolBits }

// symbolSlot returns the slot length: SymbolBits bit slots, so BPS
// stays bits per second.
func (cfg TLBConfig) symbolSlot(geo sim.Geometry) uint64 {
	return uint64(cfg.SymbolBits) * cfg.slotCycles(geo)
}

// symbolAt assembles the symbol for slot si from the message bits,
// MSB first, zero-padding a trailing partial symbol. done mirrors
// bitAt: the slot after the last message bit (unless repeating).
func (cfg TLBConfig) symbolAt(si int) (sym int, done bool) {
	if _, d := cfg.bitAt(si * cfg.SymbolBits); d {
		return 0, true
	}
	for k := 0; k < cfg.SymbolBits; k++ {
		b, d := cfg.bitAt(si*cfg.SymbolBits + k)
		if d {
			b = 0
		}
		sym = sym<<1 | b
	}
	return sym, false
}

// DecodeTLBSymbol maps a per-group probe-miss histogram to the decoded
// symbol: the group with the most misses, lowest group on ties (the
// deterministic tie-break the golden corpus pins). An empty histogram
// decodes to 0.
func DecodeTLBSymbol(misses []int) int {
	best := 0
	for g := 1; g < len(misses); g++ {
		if misses[g] > misses[best] {
			best = g
		}
	}
	return best
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
	cfg TLBConfig

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
func NewTLBTrojan(cfg TLBConfig) *TLBTrojan {
	cfg.Protocol.validate()
	if cfg.SymbolBits <= 0 || cfg.RoundsPerSymbol <= 0 || cfg.MaxBurstCycles == 0 {
		panic("channels: tlb trojan needs SymbolBits, RoundsPerSymbol, and MaxBurstCycles")
	}
	return &TLBTrojan{cfg: cfg}
}

// Name implements sim.Program.
func (t *TLBTrojan) Name() string { return "tlb-trojan" }

// Begin implements sim.Program.
func (t *TLBTrojan) Begin(m *sim.Machine) {
	geo := m.Geometry()
	t.m = m
	t.slot = t.cfg.symbolSlot(geo)
	burst := min(t.slot, t.cfg.MaxBurstCycles)
	t.round = burst / uint64(t.cfg.RoundsPerSymbol)
	t.sets = geo.TLBSets / t.cfg.groups()
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
			sym, done := t.cfg.symbolAt(t.si)
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
			if t.r < t.cfg.RoundsPerSymbol {
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

// TLBSpy decodes by keeping its own translation in every way of every
// set and probing them each round: the group the trojan filled comes
// back as page walks. Probing re-primes, so one pass serves both
// roles. It is a sim.Program state machine.
type TLBSpy struct {
	// readout's series is the winning group's share of each symbol's
	// probe misses, one value per symbol slot.
	readout
	cfg    TLBConfig
	m      *sim.Machine
	slot   uint64
	round  uint64
	sets   int // total TLB sets
	ways   int
	misses []int // per-group miss counts for the current symbol
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
	tsSlot             // decode slot bounds / close out the symbol
	tsRound            // wait past the trojan's evict phase
	tsProbe            // issue one probe
	tsProbeDone        // classify the probe's latency
)

// NewTLBSpy builds the receiver.
func NewTLBSpy(cfg TLBConfig) *TLBSpy {
	cfg.Protocol.validate()
	if cfg.SymbolBits <= 0 || cfg.RoundsPerSymbol <= 0 ||
		cfg.MaxBurstCycles == 0 || cfg.MissLatency == 0 {
		panic("channels: tlb spy needs SymbolBits, RoundsPerSymbol, MaxBurstCycles, and MissLatency")
	}
	return &TLBSpy{cfg: cfg}
}

// Name implements sim.Program.
func (s *TLBSpy) Name() string { return "tlb-spy" }

// Begin implements sim.Program.
func (s *TLBSpy) Begin(m *sim.Machine) {
	geo := m.Geometry()
	s.m = m
	s.slot = s.cfg.symbolSlot(geo)
	burst := min(s.slot, s.cfg.MaxBurstCycles)
	s.round = burst / uint64(s.cfg.RoundsPerSymbol)
	s.sets = geo.TLBSets
	s.ways = geo.TLBWays
	s.misses = make([]int, s.cfg.groups())
	if s.sets/s.cfg.groups() == 0 {
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
			if _, done := s.cfg.symbolAt(s.si); done {
				return false
			}
			s.start = s.cfg.Start + uint64(s.si+1)*s.slot + s.cfg.slotJitter(s.si, s.slot)
			for g := range s.misses {
				s.misses[g] = 0
			}
			s.r = 0
			s.pc = tsRound

		case tsRound:
			if s.r < s.cfg.RoundsPerSymbol {
				s.n = 0
				s.pc = tsProbe
				// Probe halfway into the round, after the trojan's fills.
				*op = sim.Op{Kind: sim.OpWaitUntil,
					Cycles: s.start + uint64(s.r)*s.round + s.round/2}
				return true
			}
			sym := DecodeTLBSymbol(s.misses)
			total, win := 0, s.misses[sym]
			for _, c := range s.misses {
				total += c
			}
			frac := 0.0
			if total > 0 {
				frac = float64(win) / float64(total)
			}
			s.obs.Series = append(s.obs.Series, frac)
			for k := 0; k < s.cfg.SymbolBits; k++ {
				if _, d := s.cfg.bitAt(s.si*s.cfg.SymbolBits + k); d {
					break // trailing pad bits of the last symbol
				}
				s.obs.Decoded = append(s.obs.Decoded, (sym>>uint(s.cfg.SymbolBits-1-k))&1)
			}
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
			if prev.Latency >= s.cfg.MissLatency {
				s.misses[s.set/(s.sets/s.cfg.groups())]++
			}
			s.pc = tsProbe
		}
	}
}
