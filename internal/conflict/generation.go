package conflict

import (
	"fmt"
	"math"

	"cchunter/internal/bloom"
)

// numGenerations is fixed at four by the paper's design: four
// generation bits per cache block and four Bloom filters.
const numGenerations = 4

// Generational is the paper's practical conflict-miss tracker
// (Figure 9). It approximates the ideal LRU stack with four block
// generations ordered by age:
//
//   - every block of the tracked cache carries generation metadata
//     recording when it was last accessed;
//   - a new generation starts whenever the number of blocks touched in
//     the current generation reaches T = totalBlocks/4 (~25% of an
//     ideal LRU stack);
//   - on replacement, the evicted tag is inserted into the Bloom
//     filter of the latest generation in which the block was accessed
//     ("remember its premature removal");
//   - an incoming miss whose tag hits any live Bloom filter is a
//     conflict miss — the block was evicted before the cache cycled
//     through its full capacity;
//   - starting a fifth generation discards the oldest: its Bloom
//     filter is flash-cleared and its metadata goes stale.
//
// The metadata lives per block, as in the hardware design, indexed by
// the block the access lands in (cache.Result.Block, set*Ways+way).
// Where the hardware keeps four generation bits and flash-clears one
// bit column per turnover, the tracker keeps one stamp per block: the
// number of the generation of the block's last access. The youngest
// set bit of the hardware's mask is exactly that generation, and the
// mask empties exactly when that generation is discarded, so a stamp
// at most three generations old stands for a non-empty mask and a
// turnover needs no scan at all.
//
// The four filters are one bit-sliced bloom.Bank: a miss probes all
// four with one AND of three bytes. A line's three probe positions
// are computed once, when the miss installs it, and kept in its
// block's metadata next to the stamp, so filing the line when it is
// evicted needs no second hash.
//
// Precondition: the tracker must see every change to the tracked
// cache. Every access is observed, every line a block holds was
// installed by an observed miss, and every removal of a block from
// the cache is reported as an eviction on the access that displaced
// it. A block's stamp and probe positions then always describe the
// line the block holds.
type Generational struct {
	totalBlocks int
	threshold   int
	bitsPerGen  int

	// bank holds the four generations' Bloom filters, generation
	// stamp s in slice (s-1)%4.
	bank *bloom.Bank

	// stamps[b] is the stamp of the generation in which block b was
	// last accessed; 0 marks a block never touched. Generation stamps
	// count up from 1. A stamp is live while now-stamp < 4.
	stamps []uint32
	// probes[b] is the packed Bloom probe word (bloom.Bank.Probes) of
	// the line block b holds, stored when a miss installed it.
	probes []uint64
	now    uint32 // stamp of the current generation

	accessed int // blocks touched in the current generation

	conflicts   uint64
	generations uint64 // generation turnovers, for stats/tests
}

// GenerationalConfig sizes the practical tracker.
type GenerationalConfig struct {
	// TotalBlocks is the tracked cache's block count (N).
	TotalBlocks int
	// BloomBitsPerGen is the size of each generation's three-hash
	// Bloom filter in bits, at most bloom.MaxBits. The paper
	// provisions 4×N bits across 4 filters, i.e. N bits each; 0
	// selects that default.
	BloomBitsPerGen int
}

// NewGenerational builds the practical tracker.
func NewGenerational(cfg GenerationalConfig) (*Generational, error) {
	if cfg.TotalBlocks <= 0 {
		return nil, fmt.Errorf("%w: TotalBlocks %d must be positive", ErrBadConfig, cfg.TotalBlocks)
	}
	if cfg.BloomBitsPerGen < 0 {
		return nil, fmt.Errorf("%w: BloomBitsPerGen %d negative", ErrBadConfig, cfg.BloomBitsPerGen)
	}
	if cfg.BloomBitsPerGen == 0 {
		cfg.BloomBitsPerGen = cfg.TotalBlocks
	}
	// The bank checks that positions fit the per-block probe word.
	bank, err := bloom.NewBank(cfg.BloomBitsPerGen)
	if err != nil {
		return nil, fmt.Errorf("%w: BloomBitsPerGen: %v", ErrBadConfig, err)
	}
	g := &Generational{
		totalBlocks: cfg.TotalBlocks,
		threshold:   max(cfg.TotalBlocks/numGenerations, 1),
		bitsPerGen:  cfg.BloomBitsPerGen,
		bank:        bank,
		stamps:      make([]uint32, cfg.TotalBlocks),
		probes:      make([]uint64, cfg.TotalBlocks),
		now:         1,
	}
	return g, nil
}

// MustNewGenerational is NewGenerational for configurations known to
// be valid; it panics on error.
func MustNewGenerational(cfg GenerationalConfig) *Generational {
	g, err := NewGenerational(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Tracker.
func (g *Generational) Name() string { return "generation-bloom" }

// Reset implements Tracker. The per-block probe words are kept: they
// describe the lines the cache still holds, and a hit after the reset
// restamps such a block without installing its line again.
func (g *Generational) Reset() {
	g.bank.Clear()
	clear(g.stamps)
	g.now = 1
	g.accessed = 0
	g.conflicts = 0
	g.generations = 0
}

// Observe implements Tracker.
func (g *Generational) Observe(o Observation) bool {
	return g.ObserveAccess(o.Block, o.LineAddr, o.Hit, o.Evicted)
}

// ObserveAccess is Observe taking only the four fields the practical
// tracker reads: the block the access landed in, the accessed line,
// whether it hit, and whether it evicted a line from that block. The
// evicted line's address is not needed: its probe positions are in
// the block's metadata. It is the simulator's per-access call — four
// scalars travel in registers, where an eight-field Observation would
// be spilled to the stack and reloaded on every L2 access. block must
// lie below TotalBlocks.
func (g *Generational) ObserveAccess(block uint32, line uint64, hit, evicted bool) bool {
	conflict := false
	var probes uint64
	if !hit {
		// Check whether the incoming tag was recently prematurely
		// evicted: a hit in any generation's Bloom filter means the
		// block was accessed in that generation but replaced to make
		// room before the cache cycled through full capacity. The tag
		// is hashed once and the four filters probed together.
		probes = g.bank.Probes(line)
		if g.bank.AnyContains(probes) {
			conflict = true
			g.conflicts++
		}
	}
	stamp := g.stamps[block]
	if evicted && stamp != 0 && g.now-stamp < numGenerations {
		// The displaced tag held this block; record it in the Bloom
		// filter of the latest generation in which it was accessed,
		// at the positions stored when it was installed.
		g.bank.Add(g.probes[block], int((stamp-1)%numGenerations))
	}
	if !hit {
		g.probes[block] = probes
	}
	// Mark the accessed block in the current generation (emulating
	// placement at the top of the LRU stack). A miss always counts: the
	// block now holds a line not yet touched in this generation.
	if !hit || stamp != g.now {
		g.stamps[block] = g.now
		g.accessed++
		if g.accessed >= g.threshold {
			g.turnover()
		}
	}
	return conflict
}

// turnover discards the oldest generation and starts a new one in its
// Bloom filter slot, flash-clearing that filter. Stamps of the
// discarded generation go stale by the counter moving on.
func (g *Generational) turnover() {
	if g.now == math.MaxUint32 {
		g.rebase()
	}
	g.now++
	g.bank.ClearSlice(int((g.now - 1) % numGenerations))
	g.accessed = 0
	g.generations++
}

// rebase renumbers the stamps before the generation counter wraps,
// once every 2^32 turnovers: live stamps move down by a multiple of
// four, which keeps their Bloom filter slots, and stale ones are
// zeroed.
func (g *Generational) rebase() {
	shift := (g.now - numGenerations) &^ (numGenerations - 1)
	for b, stamp := range g.stamps {
		if stamp != 0 && g.now-stamp < numGenerations {
			g.stamps[b] = stamp - shift
		} else {
			g.stamps[b] = 0
		}
	}
	g.now -= shift
}

// Conflicts returns the number of conflict misses detected.
func (g *Generational) Conflicts() uint64 { return g.conflicts }

// Generations returns how many generation turnovers have happened.
func (g *Generational) Generations() uint64 { return g.generations }
