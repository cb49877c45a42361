package conflict

import (
	"testing"
	"testing/quick"

	"cchunter/internal/bloom"
	"cchunter/internal/cache"
	"cchunter/internal/stats"
)

// TestFirstTouchNeverConflicts: no tracker may flag a line's very
// first access as a conflict miss — nothing was prematurely evicted.
// The streams evict, so the practical tracker's Bloom filters fill; the
// filter geometry is checked up front to admit no false positive among
// the stream's 500 lines, which makes the property exact for it too.
func TestFirstTouchNeverConflicts(t *testing.T) {
	const lines, bloomBits = 500, 1 << 16
	for l := uint64(0); l < lines; l++ {
		f := bloom.MustNew(bloomBits, 3)
		for other := uint64(0); other < lines; other++ {
			if other != l {
				f.Add(other)
			}
		}
		if f.Contains(l) {
			t.Fatalf("line %d is a Bloom false positive among the other %d lines", l, lines-1)
		}
	}
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		c := cache.MustNew(cache.Config{SizeBytes: 64 * 64, LineBytes: 64, Ways: 8, HitLatency: 1})
		ideal := MustNewIdeal(64)
		gen := MustNewGenerational(GenerationalConfig{TotalBlocks: 64, BloomBitsPerGen: bloomBits})
		seen := map[uint64]bool{}
		for _, o := range cacheStream(c, r, 200, 2, lines) {
			first := !seen[o.LineAddr]
			seen[o.LineAddr] = true
			ci := ideal.Observe(o)
			cg := gen.Observe(o)
			if first && (ci || cg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHitsNeverConflict: a cache hit is never a conflict miss, in
// either tracker, for arbitrary interleavings.
func TestHitsNeverConflict(t *testing.T) {
	hits := 0
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		c := cache.MustNew(cache.Config{SizeBytes: 32 * 64, LineBytes: 64, Ways: 4, HitLatency: 1})
		trackers := []Tracker{
			MustNewIdeal(32),
			MustNewGenerational(GenerationalConfig{TotalBlocks: 32}),
		}
		for _, o := range cacheStream(c, r, 300, 4, 100) {
			for _, tr := range trackers {
				if tr.Observe(o) && o.Hit {
					return false
				}
			}
			if o.Hit {
				hits++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if hits == 0 {
		t.Fatal("streams never hit; the property went unchecked")
	}
}

// TestIdealAgreesWithDefinition: replay random traffic through a real
// cache and verify the ideal tracker's verdicts against a brute-force
// reuse-distance computation (a miss is a conflict iff fewer than
// `capacity` distinct lines were touched since the last access).
func TestIdealAgreesWithDefinition(t *testing.T) {
	c := cache.MustNew(cache.Config{SizeBytes: 2048, LineBytes: 64, Ways: 2, HitLatency: 1})
	capacity := c.NumBlocks() // 32
	tr := MustNewIdeal(capacity)
	r := stats.NewRNG(77)
	var history []uint64
	for i := 0; i < 3000; i++ {
		addr := uint64(r.Intn(128)) << 6
		res := c.Access(addr, 0)
		got := tr.Observe(observationOf(res, 0))
		// Brute force: reuse distance in distinct lines.
		want := false
		if !res.Hit {
			distinct := map[uint64]bool{}
			for j := len(history) - 1; j >= 0; j-- {
				if history[j] == res.LineAddr {
					want = len(distinct) < capacity
					break
				}
				distinct[history[j]] = true
			}
		}
		if got != want {
			t.Fatalf("access %d line %x: ideal=%v brute-force=%v", i, res.LineAddr, got, want)
		}
		history = append(history, res.LineAddr)
	}
}

// TestGenerationalNeverFlagsBeyondHorizon: a line untouched for more
// than 4 full generations (≥ N distinct touches) must not be flagged —
// its eviction is no longer premature.
func TestGenerationalNeverFlagsBeyondHorizon(t *testing.T) {
	// Direct-mapped, 16 blocks: threshold 4, and B evicts A at once.
	geometry := cache.Config{SizeBytes: 16 * 64, LineBytes: 64, Ways: 1, HitLatency: 1}
	run := func(touches int) bool {
		c := cache.MustNew(geometry)
		g := MustNewGenerational(GenerationalConfig{TotalBlocks: 16})
		a := c.AddrForSet(0, 0, 1)
		seq := [][2]uint64{{a, 0}, {c.AddrForSet(0, 1, 1), 0}}
		for i := 0; i < touches; i++ {
			seq = append(seq, [2]uint64{c.AddrForSet(uint32(1+i%15), i, 2), 0})
		}
		driveCache(c, g, seq)
		return driveCache(c, g, [][2]uint64{{a, 0}})[0]
	}
	if !run(0) {
		t.Fatal("fresh eviction not flagged; the horizon check would be vacuous")
	}
	// 5 generations' worth of distinct touches.
	if run(5 * 16) {
		t.Error("eviction survived past the tracker's horizon")
	}
}
