package channels

import (
	"cchunter/internal/auditor"
	"cchunter/internal/sim"
	"cchunter/internal/trace"
)

// Spec declares one covert channel: where its programs run, what the
// CC-Auditor must watch to see it, and how to build it.
type Spec struct {
	// Name is the channel's name as scenarios and -channel flags spell
	// it.
	Name string
	// TrojanCtx and SpyCtx are the contexts the programs are pinned to.
	TrojanCtx, SpyCtx int
	// Monitor programs the auditor's two monitoring slots (§V-A).
	Monitor auditor.Pair
	// Indicator is the event the trojan raises: a burst kind in
	// Monitor, or KindConflictMiss for the cache channel, whose train
	// the oscillation detector reads.
	Indicator trace.Kind
	// Ring says the machine needs the ring interconnect; every other
	// machine stays bit-for-bit identical to a ring-less one.
	Ring bool
	// New builds the trojan and the spy.
	New func(Params) (trojan sim.Program, spy Spy)
}

// Params is what a scenario chooses for a channel: the protocol both
// ends share, plus the knobs of single channels.
type Params struct {
	Protocol
	EvasionNoise float64 // bus: BusConfig.EvasionNoise
	CacheSets    int     // cache: CacheConfig.SetsUsed
	CacheRounds  int     // cache: rounds per bit, 0 = sized to the slot
}

// Observation is what a spy saw: its decoded bits and its observable,
// one value per bit slot (per symbol slot for the TLB channel).
type Observation struct {
	Decoded []int
	Series  []float64
}

// Spy is a receiver program.
type Spy interface {
	sim.Program
	// Observation returns what the spy has seen so far.
	Observation() Observation
}

// readout is the record every spy embeds.
type readout struct{ obs Observation }

// Observation implements Spy.
func (r *readout) Observation() Observation { return r.obs }

// decide records one bit slot's observable v and its bit, '1' if one.
func (r *readout) decide(v float64, one bool) {
	r.obs.Series = append(r.obs.Series, v)
	bit := 0
	if one {
		bit = 1
	}
	r.obs.Decoded = append(r.obs.Decoded, bit)
}

// FirstFreeCore returns the lowest core above the channel's contexts.
func (s Spec) FirstFreeCore(threadsPerCore int) int {
	return max(s.TrojanCtx, s.SpyCtx)/threadsPerCore + 1
}

// Oscillatory reports whether the channel is detected from the
// conflict-miss train's oscillation rather than from event bursts.
func (s Spec) Oscillatory() bool { return s.Indicator == trace.KindConflictMiss }

// Table declares every covert channel, in the order -channel flags list
// them. Contexts 2k and 2k+1 are the hyperthreads of core k.
var Table = []Spec{{
	// Different cores: only the bus is shared.
	Name: "bus", TrojanCtx: 0, SpyCtx: 2,
	Monitor: auditor.ClassicPair, Indicator: trace.KindBusLock,
	New: func(p Params) (sim.Program, Spy) {
		c := DefaultBusConfig(p.Message, p.BPS)
		c.Protocol, c.EvasionNoise = p.Protocol, p.EvasionNoise
		return NewBusTrojan(c), NewBusSpy(c)
	},
}, {
	// The divider is per-core: hyperthreads of core 0.
	Name: "divider", TrojanCtx: 0, SpyCtx: 1,
	Monitor: auditor.ClassicPair, Indicator: trace.KindDivContention,
	New: func(p Params) (sim.Program, Spy) {
		c := DefaultDivConfig(p.Message, p.BPS)
		c.Protocol = p.Protocol
		return NewDivTrojan(c), NewDivSpy(c)
	},
}, {
	// Different cores sharing only the L2: the cross-VM arrangement of
	// Xu et al.
	Name: "cache", TrojanCtx: 0, SpyCtx: 2,
	Monitor: auditor.ClassicPair, Indicator: trace.KindConflictMiss,
	New: func(p Params) (sim.Program, Spy) {
		if p.CacheSets <= 0 {
			// The round sizing below divides by the set count.
			panic("channels: cache channel needs CacheSets > 0")
		}
		c := DefaultCacheConfig(p.Message, p.BPS)
		c.Protocol, c.SetsUsed = p.Protocol, p.CacheSets
		// Redundancy scales with the slot: low-bandwidth bits repeat
		// their prime/probe rounds (the "certain number of conflicts
		// needed to reliably transmit a bit", §VI-A), which also puts
		// several oscillation periods into each observation window.
		slot := uint64(2_500_000_000 / p.BPS)
		roundCost := uint64(p.CacheSets) * 2_700 // fill + double probe
		rounds := p.CacheRounds
		if rounds <= 0 {
			rounds = int(slot / (2 * roundCost))
		}
		c.RoundsPerBit = min(max(rounds, 1), 8)
		c.MaxBurstCycles = uint64(c.RoundsPerBit) * roundCost * 13 / 10
		return NewCacheTrojan(c), NewCacheSpy(c)
	},
}, {
	// Different cores routing clockwise into one LLC slice: only the
	// ring path is shared.
	Name: "ring", TrojanCtx: 0, SpyCtx: 2, Ring: true,
	Monitor:   auditor.Pair{trace.KindBusLock, trace.KindRingContention},
	Indicator: trace.KindRingContention,
	New: func(p Params) (sim.Program, Spy) {
		c := DefaultRingConfig(p.Message, p.BPS)
		c.Protocol = p.Protocol
		return NewRingTrojan(c), NewRingSpy(c)
	},
}, {
	// The sTLB is per-core: hyperthreads of core 0.
	Name: "tlb", TrojanCtx: 0, SpyCtx: 1,
	Monitor:   auditor.Pair{trace.KindDivContention, trace.KindTLBConflict},
	Indicator: trace.KindTLBConflict,
	New: func(p Params) (sim.Program, Spy) {
		c := DefaultTLBConfig(p.Message, p.BPS)
		c.Protocol = p.Protocol
		return NewTLBTrojan(c), NewTLBSpy(c)
	},
}}

// Lookup returns the table row named name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Table {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
