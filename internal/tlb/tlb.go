// Package tlb models the second-level (shared) TLB of an SMT core —
// the translation cache both hyperthreads fill and evict, the medium
// of accessed-bit TLB covert channels. The indicator event is a TLB
// fill from one hardware context evicting a translation inserted by
// the other context (KindTLBConflict); same-context evictions are the
// normal working-set churn and stay silent.
package tlb

import "cchunter/internal/trace"

// PageShift is the page size the TLB translates (4 KiB pages).
const PageShift = 12

// Config sets the sTLB geometry.
type Config struct {
	// Sets is the number of TLB sets; must be a power of two.
	Sets int
	// Ways is the set associativity.
	Ways int
	// HitCycles is the lookup latency on a hit.
	HitCycles uint64
	// WalkCycles is the page-walk latency charged on a miss — the
	// latency contrast the spy's accessed-bit probe decodes.
	WalkCycles uint64
}

// DefaultConfig returns a small sTLB: 16 sets × 4 ways, 1-cycle hits,
// and a 120-cycle page walk. Real sTLBs are larger; a small one keeps
// the channel's working set (and the simulation) compact while
// preserving the set-conflict structure the channel exploits.
func DefaultConfig() Config {
	return Config{Sets: 16, Ways: 4, HitCycles: 1, WalkCycles: 120}
}

// TLB is one core's shared TLB. The engine serializes calls in global
// time order. Entries record the inserting context so cross-context
// evictions are attributable.
type TLB struct {
	cfg   Config
	pages []uint64 // sets × ways, virtual page numbers
	owner []uint8
	valid []bool
	used  []uint64 // LRU ticks, monotonic per-TLB
	tick  uint64

	out *trace.Batcher // indicator events; nil reports none

	lookups   uint64
	misses    uint64
	conflicts uint64
}

// New returns an sTLB. It panics on a bad geometry.
func New(cfg Config, out *trace.Batcher) *TLB {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("tlb: Sets must be a positive power of two")
	}
	if cfg.Ways <= 0 {
		panic("tlb: Ways must be positive")
	}
	if cfg.HitCycles == 0 || cfg.WalkCycles == 0 {
		panic("tlb: zero latency")
	}
	n := cfg.Sets * cfg.Ways
	return &TLB{
		cfg:   cfg,
		pages: make([]uint64, n),
		owner: make([]uint8, n),
		valid: make([]bool, n),
		used:  make([]uint64, n),
		out:   out,
	}
}

// SetOf returns the TLB set an address's page maps to.
func (t *TLB) SetOf(addr uint64) int {
	return int((addr >> PageShift) & uint64(t.cfg.Sets-1))
}

// Probe looks up addr's translation, filling on a miss, and returns the
// latency and whether it hit. A fill that evicts a valid entry inserted
// by another context raises KindTLBConflict (Actor = filler, Victim =
// previous owner, Unit = set), stamped at the issue cycle.
func (t *TLB) Probe(now, stamp uint64, ctx uint8, addr uint64) (latency uint64, hit bool) {
	_ = now
	t.lookups++
	t.tick++
	page := addr >> PageShift
	set := int(page & uint64(t.cfg.Sets-1))
	base := set * t.cfg.Ways
	victim := base
	for w := 0; w < t.cfg.Ways; w++ {
		i := base + w
		if t.valid[i] && t.pages[i] == page {
			t.used[i] = t.tick
			return t.cfg.HitCycles, true
		}
		if !t.valid[victim] {
			continue // keep the first invalid way
		}
		if !t.valid[i] || t.used[i] < t.used[victim] {
			victim = i
		}
	}
	t.misses++
	if t.valid[victim] && t.owner[victim] != ctx {
		t.conflicts++
		if t.out != nil {
			t.out.Add(trace.Event{
				Cycle:  stamp,
				Kind:   trace.KindTLBConflict,
				Actor:  ctx,
				Victim: t.owner[victim],
				Unit:   uint32(set),
			})
		}
	}
	t.pages[victim] = page
	t.owner[victim] = ctx
	t.valid[victim] = true
	t.used[victim] = t.tick
	return t.cfg.WalkCycles, false
}

// Stats reports cumulative TLB activity.
type Stats struct {
	Lookups   uint64 // probes issued
	Misses    uint64 // fills (page walks)
	Conflicts uint64 // cross-context evictions (indicator events)
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats {
	return Stats{Lookups: t.lookups, Misses: t.misses, Conflicts: t.conflicts}
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }
