package conflict

import (
	"fmt"

	"cchunter/internal/bloom"
)

// numGenerations is fixed at four by the paper's design: four
// generation bits per cache block and four Bloom filters.
const numGenerations = 4

// Generational is the paper's practical conflict-miss tracker
// (Figure 9). It approximates the ideal LRU stack with four block
// generations ordered by age:
//
//   - every resident block carries four generation bits recording the
//     generations in which it was accessed; the youngest bit is set on
//     every access;
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
//     filter and its metadata bit column are flash-cleared.
type Generational struct {
	totalBlocks int
	threshold   int
	bitsPerGen  int
	hashes      int

	filters [numGenerations]*bloom.Filter
	// probes is the scratch for the per-access Bloom probe positions.
	// All four filters share one geometry, so an incoming tag is
	// hashed once and the same positions are checked in each — the
	// software analogue of the hardware design's shared hash trees.
	probes []uint64

	// Flat residency table, the software stand-in for the per-block
	// generation-bit columns of the hardware design (where the bits
	// live in the cache block metadata, i.e. one packed array keyed by
	// (set, way)). The tracker interface never sees way placement and
	// the tests feed it streams detached from any cache geometry, so
	// the table is keyed by line address instead: open addressing with
	// linear probing and backward-shift deletion over keys/masks.
	// masks[i] == 0 marks an empty slot — a resident entry always has
	// at least one generation bit set. Live entries are bounded by
	// 4×threshold (each of the four live generations marks at most
	// threshold blocks), so the table is sized once at construction
	// and Observe never allocates.
	keys  []uint64
	masks []uint8
	tmask uint64

	// sweep buffers the lines to drop while advanceGeneration scans
	// the table, so deletions do not shift entries under the scan.
	sweep []uint64

	current  int // index of the youngest generation
	accessed int // blocks touched in the current generation

	conflicts   uint64
	generations uint64 // generation turnovers, for stats/tests
}

// GenerationalConfig sizes the practical tracker.
type GenerationalConfig struct {
	// TotalBlocks is the tracked cache's block count (N).
	TotalBlocks int
	// BloomBitsPerGen is the size of each generation's Bloom filter in
	// bits. The paper provisions 4×N bits across 4 filters, i.e. N
	// bits each; 0 selects that default.
	BloomBitsPerGen int
	// Hashes is the number of Bloom hash functions (default 3, per
	// the paper's "three-hash bloom filter").
	Hashes int
}

// NewGenerational builds the practical tracker.
func NewGenerational(cfg GenerationalConfig) (*Generational, error) {
	if cfg.TotalBlocks <= 0 {
		return nil, fmt.Errorf("%w: TotalBlocks %d must be positive", ErrBadConfig, cfg.TotalBlocks)
	}
	if cfg.BloomBitsPerGen < 0 {
		return nil, fmt.Errorf("%w: BloomBitsPerGen %d negative", ErrBadConfig, cfg.BloomBitsPerGen)
	}
	if cfg.Hashes < 0 {
		return nil, fmt.Errorf("%w: Hashes %d negative", ErrBadConfig, cfg.Hashes)
	}
	if cfg.BloomBitsPerGen == 0 {
		cfg.BloomBitsPerGen = cfg.TotalBlocks
	}
	if cfg.Hashes == 0 {
		cfg.Hashes = 3
	}
	g := &Generational{
		totalBlocks: cfg.TotalBlocks,
		threshold:   cfg.TotalBlocks / numGenerations,
		bitsPerGen:  cfg.BloomBitsPerGen,
		hashes:      cfg.Hashes,
		probes:      make([]uint64, 0, cfg.Hashes),
	}
	if g.threshold < 1 {
		g.threshold = 1
	}
	bound := numGenerations * g.threshold
	g.keys = make([]uint64, tablePow2(bound))
	g.masks = make([]uint8, len(g.keys))
	g.tmask = uint64(len(g.keys) - 1)
	g.sweep = make([]uint64, 0, bound)
	for i := range g.filters {
		// Parameters were validated above; a failure here is a bug.
		g.filters[i] = bloom.MustNew(cfg.BloomBitsPerGen, cfg.Hashes)
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

// Reset implements Tracker.
func (g *Generational) Reset() {
	for _, f := range g.filters {
		f.Clear()
	}
	for i := range g.masks {
		g.masks[i] = 0
	}
	g.current = 0
	g.accessed = 0
	g.conflicts = 0
	g.generations = 0
}

// find returns the table position of line and whether it is resident.
// When absent, the returned position is the empty slot a subsequent
// insert must use.
func (g *Generational) find(line uint64) (pos uint64, found bool) {
	pos = mixLine(line) & g.tmask
	for {
		if g.masks[pos] == 0 {
			return pos, false
		}
		if g.keys[pos] == line {
			return pos, true
		}
		pos = (pos + 1) & g.tmask
	}
}

// remove deletes the entry at pos, backward-shifting its probe
// cluster so later lookups never cross a stale hole.
func (g *Generational) remove(pos uint64) {
	cur := pos
	for {
		cur = (cur + 1) & g.tmask
		if g.masks[cur] == 0 {
			break
		}
		home := mixLine(g.keys[cur]) & g.tmask
		if (cur-home)&g.tmask >= (cur-pos)&g.tmask {
			g.keys[pos] = g.keys[cur]
			g.masks[pos] = g.masks[cur]
			pos = cur
		}
	}
	g.masks[pos] = 0
}

// Observe implements Tracker.
func (g *Generational) Observe(o Observation) bool {
	return g.ObserveAccess(o.LineAddr, o.Hit, o.Evicted, o.EvictedLine)
}

// ObserveAccess is Observe taking only the four fields the practical
// tracker reads: the accessed line, whether it hit, and whether (and
// which) line it evicted. It is the simulator's per-access call —
// four scalars travel in registers, where a seven-field Observation
// would be spilled to the stack and reloaded on every L2 access.
func (g *Generational) ObserveAccess(line uint64, hit, evicted bool, evictedLine uint64) bool {
	conflict := false
	if !hit {
		// Check whether the incoming tag was recently prematurely
		// evicted: a hit in any generation's Bloom filter means the
		// block was accessed in that generation but replaced to make
		// room before the cache cycled through full capacity. The tag
		// is hashed once; the filters share one geometry.
		g.probes = g.filters[0].AppendProbes(g.probes, line)
		if bloom.AnyContainsAt(g.filters[:], g.probes) {
			conflict = true
			g.conflicts++
		}
	}
	if evicted {
		// Record the displaced tag in the Bloom filter of the latest
		// generation in which it was accessed.
		if pos, ok := g.find(evictedLine); ok {
			g.filters[g.latestGeneration(g.masks[pos])].Add(evictedLine)
			g.remove(pos)
		}
	}
	// Mark the accessed block in the current generation (emulating
	// placement at the top of the LRU stack).
	bit := uint8(1) << uint(g.current)
	pos, found := g.find(line)
	mask := uint8(0)
	if found {
		mask = g.masks[pos]
	}
	if mask&bit == 0 {
		g.keys[pos] = line
		g.masks[pos] = mask | bit
		g.accessed++
		if g.accessed >= g.threshold {
			g.advanceGeneration()
		}
	}
	return conflict
}

// latestGeneration returns the index of the youngest generation whose
// bit is set in mask, searching from the current generation backwards
// through age order.
func (g *Generational) latestGeneration(mask uint8) int {
	for age := 0; age < numGenerations; age++ {
		idx := (g.current - age + numGenerations) % numGenerations
		if mask&(1<<uint(idx)) != 0 {
			return idx
		}
	}
	// A resident block always has at least one bit set (set on
	// install); defensively attribute to the current generation.
	return g.current
}

// advanceGeneration discards the oldest generation and makes its slot
// the new youngest, flash-clearing its Bloom filter and its bit column
// in the resident metadata. Blocks only ever touched in the discarded
// generation fall off the bottom of the stack; they are collected
// during the column scan and removed afterwards, since removal shifts
// table entries and must not run under the scan.
func (g *Generational) advanceGeneration() {
	oldest := (g.current + 1) % numGenerations
	g.filters[oldest].Clear()
	keep := ^(uint8(1) << uint(oldest))
	g.sweep = g.sweep[:0]
	for i, m := range g.masks {
		if m == 0 {
			continue
		}
		if nm := m & keep; nm != m {
			if nm == 0 {
				g.sweep = append(g.sweep, g.keys[i])
			} else {
				g.masks[i] = nm
			}
		}
	}
	for _, line := range g.sweep {
		if pos, ok := g.find(line); ok {
			g.remove(pos)
		}
	}
	g.current = oldest
	g.accessed = 0
	g.generations++
}

// Conflicts returns the number of conflict misses detected.
func (g *Generational) Conflicts() uint64 { return g.conflicts }

// Generations returns how many generation turnovers have happened.
func (g *Generational) Generations() uint64 { return g.generations }

// HardwareCost reports the tracker's storage budget: Bloom filter bits
// plus per-block metadata bits (4 generation bits + 3 owner-context
// bits, per §V-A), used by the auditor's Table I model.
func (g *Generational) HardwareCost() (bloomBits, metadataBits int) {
	return numGenerations * g.bitsPerGen, g.totalBlocks * (numGenerations + 3)
}
