package conflict

import (
	"math"
	"testing"

	"cchunter/internal/cache"
	"cchunter/internal/stats"
)

// flat_test.go pins the flat, index-addressed trackers against
// map-based builds of the same algorithms, observation by
// observation, on adversarial random streams. The ideal tracker's
// streams do not mirror any cache geometry on purpose: it must be
// exact for arbitrary Observation sequences. The practical tracker
// keys its state by the block an access lands in, so its streams come
// from a real cache (cacheStream) — the precondition it documents —
// under adversarial traffic: random way partitions, several contexts,
// working sets far beyond capacity and a hot set.

// cacheStream drives n random accesses through c and returns the
// observations the cache reports: ctxs contexts, lines drawn from a
// span-line working set with a hot set of 8 revisited often, and half
// the accesses confined to a random way range [lo, hi), so partitioned
// installs, cross-partition hits and evictions all occur.
func cacheStream(c *cache.Cache, r *stats.RNG, n, ctxs, span int) []Observation {
	out := make([]Observation, n)
	ways := c.Ways()
	var res cache.Result
	for i := range out {
		line := uint64(r.Intn(span))
		if r.Intn(4) == 0 {
			line = uint64(r.Intn(8))
		}
		lo, hi := 0, ways
		if r.Intn(2) == 0 {
			lo = r.Intn(ways)
			hi = lo + 1 + r.Intn(ways-lo)
		}
		ctx := uint8(r.Intn(ctxs))
		c.AccessInto(&res, line*uint64(c.LineBytes()), ctx, lo, hi)
		out[i] = observationOf(res, ctx)
	}
	return out
}

// randomStream builds an adversarial observation stream: a working
// set far larger than any tracker table, hits on never-seen lines,
// evictions of lines that may or may not be resident, and skewed
// reuse so move-to-front and backward-shift deletion paths all fire.
func randomStream(seed uint64, n, lines int) []Observation {
	r := stats.NewRNG(seed)
	out := make([]Observation, n)
	for i := range out {
		o := Observation{
			LineAddr: uint64(r.Intn(lines)),
			Hit:      r.Intn(3) == 0,
		}
		if !o.Hit && r.Intn(2) == 0 {
			o.Evicted = true
			o.EvictedLine = uint64(r.Intn(lines))
		}
		// Skew: revisit a small hot set often so stacks churn.
		if r.Intn(4) == 0 {
			o.LineAddr = uint64(r.Intn(8))
		}
		out[i] = o
	}
	return out
}

func TestIdealMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 64, 257} {
		flat := MustNewIdeal(capacity)
		ref := MustNewIdealReference(capacity)
		for i, o := range randomStream(uint64(capacity), 20000, 4*capacity+16) {
			got, want := flat.Observe(o), ref.Observe(o)
			if got != want {
				t.Fatalf("capacity %d: observation %d: flat=%v reference=%v", capacity, i, got, want)
			}
			if flat.StackSize() != ref.StackSize() {
				t.Fatalf("capacity %d: observation %d: stack size flat=%d reference=%d",
					capacity, i, flat.StackSize(), ref.StackSize())
			}
		}
		if flat.Conflicts() != ref.Conflicts() {
			t.Errorf("capacity %d: conflicts flat=%d reference=%d", capacity, flat.Conflicts(), ref.Conflicts())
		}
	}
}

func TestIdealMatchesReferenceAfterReset(t *testing.T) {
	flat, ref := MustNewIdeal(16), MustNewIdealReference(16)
	for _, o := range randomStream(1, 2000, 64) {
		flat.Observe(o)
		ref.Observe(o)
	}
	flat.Reset()
	ref.Reset()
	for i, o := range randomStream(2, 2000, 64) {
		if got, want := flat.Observe(o), ref.Observe(o); got != want {
			t.Fatalf("post-reset observation %d: flat=%v reference=%v", i, got, want)
		}
	}
}

// refFilter is a textbook word-array three-hash Bloom filter, built
// independently of bloom.Bank's bit slicing and of the tracker's
// stored probe positions: positions by double hashing reduced with %.
type refFilter struct {
	bits  []uint64
	nbits uint64
}

func newRefFilter(nbits int) *refFilter {
	words := (nbits + 63) / 64
	return &refFilter{bits: make([]uint64, words), nbits: uint64(words * 64)}
}

func (f *refFilter) positions(key uint64) [3]uint64 {
	h1 := mixLine(key)
	h2 := mixLine(key^0x9e3779b97f4a7c15) | 1
	return [3]uint64{h1 % f.nbits, (h1 + h2) % f.nbits, (h1 + 2*h2) % f.nbits}
}

func (f *refFilter) add(key uint64) {
	for _, p := range f.positions(key) {
		f.bits[p/64] |= 1 << (p % 64)
	}
}

func (f *refFilter) contains(key uint64) bool {
	for _, p := range f.positions(key) {
		if f.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

func (f *refFilter) clear() { clear(f.bits) }

// generationalOracle is the line-keyed build of the practical
// tracker, the representation it had before its state moved into
// per-block metadata: a map from resident line to its four generation
// bits, a flash-cleared bit column per turnover, four separate Bloom
// filters, and the evicted tag hashed again and filed under the
// youngest set bit. It shares nothing with the per-block
// implementation but the configuration.
type generationalOracle struct {
	filters     [numGenerations]*refFilter
	threshold   int
	resident    map[uint64]uint8
	current     int
	accessed    int
	conflicts   uint64
	generations uint64
}

func newGenerationalOracle(cfg GenerationalConfig) *generationalOracle {
	o := &generationalOracle{
		threshold: max(cfg.TotalBlocks/numGenerations, 1),
		resident:  map[uint64]uint8{},
	}
	bits := cfg.BloomBitsPerGen
	if bits == 0 {
		bits = cfg.TotalBlocks
	}
	for i := range o.filters {
		o.filters[i] = newRefFilter(bits)
	}
	return o
}

func (o *generationalOracle) observe(ob Observation) bool {
	conflict := false
	if !ob.Hit {
		for _, f := range o.filters {
			if f.contains(ob.LineAddr) {
				conflict = true
				o.conflicts++
				break
			}
		}
	}
	if ob.Evicted {
		if mask, ok := o.resident[ob.EvictedLine]; ok {
			idx := o.latestGeneration(mask)
			o.filters[idx].add(ob.EvictedLine)
			delete(o.resident, ob.EvictedLine)
		}
	}
	bit := uint8(1) << uint(o.current)
	mask := o.resident[ob.LineAddr]
	if mask&bit == 0 {
		o.resident[ob.LineAddr] = mask | bit
		o.accessed++
		if o.accessed >= o.threshold {
			oldest := (o.current + 1) % numGenerations
			o.filters[oldest].clear()
			keep := ^(uint8(1) << uint(oldest))
			for line, m := range o.resident {
				if nm := m & keep; nm != m {
					if nm == 0 {
						delete(o.resident, line)
					} else {
						o.resident[line] = nm
					}
				}
			}
			o.current = oldest
			o.accessed = 0
			o.generations++
		}
	}
	return conflict
}

func (o *generationalOracle) latestGeneration(mask uint8) int {
	for age := 0; age < numGenerations; age++ {
		idx := (o.current - age + numGenerations) % numGenerations
		if mask&(1<<uint(idx)) != 0 {
			return idx
		}
	}
	return o.current
}

// checkAgainstOracle feeds stream to a fresh per-block tracker (after
// prepare, when given) and to the line-keyed oracle, failing on the
// first access whose conflict flag differs and on any difference in
// the final Conflicts or Generations counts.
func checkAgainstOracle(t *testing.T, name string, cfg GenerationalConfig, stream []Observation, prepare func(*Generational)) {
	t.Helper()
	g := MustNewGenerational(cfg)
	if prepare != nil {
		prepare(g)
	}
	oracle := newGenerationalOracle(cfg)
	for i, ob := range stream {
		if got, want := g.Observe(ob), oracle.observe(ob); got != want {
			t.Fatalf("%s: access %d (%+v): per-block=%v oracle=%v", name, i, ob, got, want)
		}
	}
	if g.Conflicts() != oracle.conflicts || g.Generations() != oracle.generations {
		t.Fatalf("%s: per-block conflicts=%d generations=%d, oracle conflicts=%d generations=%d",
			name, g.Conflicts(), g.Generations(), oracle.conflicts, oracle.generations)
	}
}

func TestGenerationalMatchesMapOracle(t *testing.T) {
	// Block counts 1, 3, 8, 64 and 512 over 1, 2, 4 and 8 ways.
	for _, geo := range []struct{ sets, ways int }{{1, 1}, {1, 3}, {4, 2}, {2, 4}, {8, 8}, {128, 4}, {64, 8}} {
		blocks := geo.sets * geo.ways
		c := cache.MustNew(cache.Config{SizeBytes: 64 * blocks, LineBytes: 64, Ways: geo.ways, HitLatency: 1})
		stream := cacheStream(c, stats.NewRNG(uint64(blocks)+7), 20000, 4, 4*blocks+32)
		checkAgainstOracle(t, "", GenerationalConfig{TotalBlocks: blocks, BloomBitsPerGen: 4096}, stream, nil)
	}
}

// TestGenerationalStampRebase starts the generation counter a few
// turnovers short of wrapping (in the same Bloom slot as a fresh
// tracker) and checks the renumbering keeps every verdict.
func TestGenerationalStampRebase(t *testing.T) {
	c := cache.MustNew(cache.Config{SizeBytes: 16 * 64, LineBytes: 64, Ways: 4, HitLatency: 1})
	stream := cacheStream(c, stats.NewRNG(21), 5000, 2, 40)
	var g *Generational
	checkAgainstOracle(t, "rebase", GenerationalConfig{TotalBlocks: 16, BloomBitsPerGen: 1024}, stream, func(fresh *Generational) {
		g = fresh
		g.now = math.MaxUint32 - 6
	})
	if g.now > 1<<16 {
		t.Errorf("the generation counter never wrapped (stamp %d); the rebase went unchecked", g.now)
	}
}

// FuzzGenerationalMatchesOracle drives real caches of fuzzed geometry
// (1–8 ways, 1–64 sets) with fuzzed traffic — contexts, working-set
// span, random partitions — into the per-block tracker and the
// line-keyed oracle, requiring the same conflict flag on every access.
func FuzzGenerationalMatchesOracle(f *testing.F) {
	f.Add(uint8(8), uint8(6), uint8(2), uint16(2000), uint16(0), uint64(1), uint16(4000))
	f.Add(uint8(1), uint8(4), uint8(4), uint16(40), uint16(6), uint64(2), uint16(4000))
	f.Add(uint8(2), uint8(0), uint8(1), uint16(5), uint16(3), uint64(3), uint16(1000))
	f.Add(uint8(4), uint8(3), uint8(8), uint16(100), uint16(1), uint64(4), uint16(4000))
	f.Fuzz(func(t *testing.T, ways, setsLog, ctxs uint8, span, bloomLog uint16, seed uint64, n uint16) {
		geometry := cache.Config{LineBytes: 64, Ways: 1 + int(ways)%8, HitLatency: 1}
		geometry.SizeBytes = 64 * geometry.Ways << (setsLog % 7)
		c := cache.MustNew(geometry)
		cfg := GenerationalConfig{TotalBlocks: c.NumBlocks()}
		if bloomLog%8 != 0 {
			cfg.BloomBitsPerGen = 32 << (bloomLog % 8) // 0 keeps the default N bits
		}
		stream := cacheStream(c, stats.NewRNG(seed), 1+int(n)%8192, 1+int(ctxs)%8, 1+int(span)%(16*c.NumBlocks()+16))
		checkAgainstOracle(t, "fuzz", cfg, stream, nil)
	})
}

// TestGenerationalStampInvariants checks the per-block state after
// every access of adversarial cache-driven traffic. Live stamps stand
// for the oracle's resident entries, so they number exactly as many,
// and at most min(TotalBlocks, 3×threshold + accessed) — each of the
// three older live generations stamped at most threshold blocks, the
// current one at most accessed. Current-generation stamps equal the
// oracle's entries carrying the current bit, at most accessed: the
// two differ by the current-generation lines evicted within the
// generation.
func TestGenerationalStampInvariants(t *testing.T) {
	for _, geo := range []struct{ sets, ways int }{{1, 1}, {2, 3}, {4, 2}, {8, 8}, {16, 4}} {
		blocks := geo.sets * geo.ways
		c := cache.MustNew(cache.Config{SizeBytes: 64 * blocks, LineBytes: 64, Ways: geo.ways, HitLatency: 1})
		cfg := GenerationalConfig{TotalBlocks: blocks}
		g := MustNewGenerational(cfg)
		oracle := newGenerationalOracle(cfg)
		bound := min(blocks, 3*g.threshold)
		for i, ob := range cacheStream(c, stats.NewRNG(uint64(blocks)+99), 30000, 4, 1000) {
			g.Observe(ob)
			oracle.observe(ob)
			live, current := 0, 0
			for _, stamp := range g.stamps {
				if stamp != 0 && g.now-stamp < numGenerations {
					live++
				}
				if stamp == g.now {
					current++
				}
			}
			oracleCurrent := 0
			for _, m := range oracle.resident {
				if m&(1<<uint(oracle.current)) != 0 {
					oracleCurrent++
				}
			}
			switch {
			case live != len(oracle.resident):
				t.Fatalf("%d blocks: access %d: %d live stamps, oracle has %d resident entries", blocks, i, live, len(oracle.resident))
			case live > bound+g.accessed || live > blocks:
				t.Fatalf("%d blocks: access %d: %d live stamps exceed bound %d", blocks, i, live, min(blocks, bound+g.accessed))
			case current != oracleCurrent || current > g.accessed:
				t.Fatalf("%d blocks: access %d: %d current stamps, oracle %d, accessed %d", blocks, i, current, oracleCurrent, g.accessed)
			}
		}
	}
}

func TestIdealObserveDoesNotAllocate(t *testing.T) {
	tr := MustNewIdeal(64)
	stream := randomStream(3, 1024, 256)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Observe(stream[i%len(stream)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Ideal.Observe allocates %.1f objects per call, want 0", allocs)
	}
}

func TestGenerationalObserveDoesNotAllocate(t *testing.T) {
	g := MustNewGenerational(GenerationalConfig{TotalBlocks: 64})
	c := cache.MustNew(cache.Config{SizeBytes: 64 * 64, LineBytes: 64, Ways: 8, HitLatency: 1})
	stream := cacheStream(c, stats.NewRNG(4), 1024, 4, 256)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		g.Observe(stream[i%len(stream)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Generational.Observe allocates %.1f objects per call, want 0", allocs)
	}
}
