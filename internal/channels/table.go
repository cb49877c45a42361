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
	EvasionNoise float64 // bus: the trojan's camouflage probability
	CacheSets    int     // cache: sets carrying the channel, split into G1 and G0
	CacheRounds  int     // cache: rounds per bit, 0 = sized to the slot
}

// Spy is a receiver program. It only samples: each slot it records a
// fixed number of raw integers, and Decode turns them into bits.
type Spy interface {
	sim.Program
	// Samples returns the raw samples of every slot completed so far.
	Samples() []uint64
}

// record is what every spy embeds: its raw samples, slot after slot.
type record struct{ samples []uint64 }

// Samples implements Spy.
func (r *record) Samples() []uint64 { return r.samples }

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
	New: func(p Params) (sim.Program, Spy) { return NewBusTrojan(p), NewBusSpy(p) },
}, {
	// The divider is per-core: hyperthreads of core 0.
	Name: "divider", TrojanCtx: 0, SpyCtx: 1,
	Monitor: auditor.ClassicPair, Indicator: trace.KindDivContention,
	New: func(p Params) (sim.Program, Spy) { return NewDivTrojan(p), NewDivSpy(p) },
}, {
	// Different cores sharing only the L2: the cross-VM arrangement of
	// Xu et al.
	Name: "cache", TrojanCtx: 0, SpyCtx: 2,
	Monitor: auditor.ClassicPair, Indicator: trace.KindConflictMiss,
	New: func(p Params) (sim.Program, Spy) { return NewCacheTrojan(p), NewCacheSpy(p) },
}, {
	// Different cores routing clockwise into one LLC slice: only the
	// ring path is shared.
	Name: "ring", TrojanCtx: 0, SpyCtx: 2, Ring: true,
	Monitor:   auditor.Pair{trace.KindBusLock, trace.KindRingContention},
	Indicator: trace.KindRingContention,
	New:       func(p Params) (sim.Program, Spy) { return NewRingTrojan(p), NewRingSpy(p) },
}, {
	// The sTLB is per-core: hyperthreads of core 0.
	Name: "tlb", TrojanCtx: 0, SpyCtx: 1,
	Monitor:   auditor.Pair{trace.KindDivContention, trace.KindTLBConflict},
	Indicator: trace.KindTLBConflict,
	New:       func(p Params) (sim.Program, Spy) { return NewTLBTrojan(p), NewTLBSpy(p) },
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
