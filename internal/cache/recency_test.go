package cache

import (
	"errors"
	"slices"
	"testing"

	"cchunter/internal/stats"
)

// refSet is one set of a slice-based true-LRU cache: the lines its
// ways hold and a move-to-front list of way numbers, most recent
// first, in the initial order the packed stack starts from.
type refSet struct {
	lines []uint64 // line+1 per way; 0 = invalid
	order []int
}

// access is the reference of AccessInWays on one set: hit anywhere,
// else fill the first invalid way in [lo, hi), else evict the least
// recent way in [lo, hi).
func (s *refSet) access(line uint64, lo, hi int) (hit bool, way int, evicted bool, evictedLine uint64) {
	way = slices.Index(s.lines, line+1)
	hit = way >= 0
	if !hit {
		for w := lo; w < hi && way < 0; w++ {
			if s.lines[w] == 0 {
				way = w
			}
		}
		for i := len(s.order) - 1; way < 0; i-- {
			if w := s.order[i]; w >= lo && w < hi {
				way, evicted, evictedLine = w, true, s.lines[w]-1
			}
		}
		s.lines[way] = line + 1
	}
	i := slices.Index(s.order, way)
	s.order = append([]int{way}, slices.Delete(s.order, i, i+1)...)
	return hit, way, evicted, evictedLine
}

// invalidate is the reference of InvalidateLine on one set: the way
// holding line, if any, becomes invalid and keeps its place in the
// order.
func (s *refSet) invalidate(line uint64) bool {
	way := slices.Index(s.lines, line+1)
	if way >= 0 {
		s.lines[way] = 0
	}
	return way >= 0
}

// stackOrder decodes set's packed recency stack into way numbers,
// most recent first.
func stackOrder(c *Cache, set int) []int {
	out := make([]int, c.Ways())
	for i := range out {
		out[i] = int(c.recency[set]>>(4*i)) & 0xf
	}
	return out
}

// recencySeeds are FuzzRecencyStackMatchesReference's seed corpus:
// ways, log2 sets, line span, RNG seed, steps and invalidation rate.
var recencySeeds = []struct {
	ways, setsLog, span uint8
	seed                uint64
	n                   uint16
	inval               uint8
}{
	{8, 2, 20, 1, 2000, 0},
	{16, 0, 40, 2, 3000, 1},
	{1, 1, 5, 3, 500, 2},
	{3, 3, 0, 4, 1000, 3},
	{8, 1, 30, 5, 3000, 1},
}

// FuzzRecencyStackMatchesReference drives a cache of fuzzed geometry
// (1–16 ways, 1–8 sets) with random lines through AccessHit, through
// AccessInWays with random partition ranges [lo, hi) and, at a fuzzed
// rate of up to 3 steps in 8, through InvalidateLine, with a
// slice-based move-to-front LRU alongside: every step must agree on
// hit, way, eviction and evicted line, and after every step the
// packed stack must decode to the reference order, with the nibbles
// above Ways still zero, and the set's hole count must equal its
// number of invalid ways.
func FuzzRecencyStackMatchesReference(f *testing.F) {
	for _, s := range recencySeeds {
		f.Add(s.ways, s.setsLog, s.span, s.seed, s.n, s.inval)
	}
	f.Fuzz(func(t *testing.T, waysIn, setsLog, span uint8, seed uint64, n uint16, inval uint8) {
		checkRecencyStack(t, waysIn, setsLog, span, seed, n, inval)
	})
}

// TestRecencySeedsReachFastPaths: over the fuzz seeds, the reference
// check covers both constant-time cases of the cache, a hit in the
// MRU way and a miss in a full set over its whole range (the one-shift
// rotate), as well as invalidations of resident lines.
func TestRecencySeedsReachFastPaths(t *testing.T) {
	var sum recencyPaths
	for _, s := range recencySeeds {
		p := checkRecencyStack(t, s.ways, s.setsLog, s.span, s.seed, s.n, s.inval)
		sum.mruHits += p.mruHits
		sum.rotates += p.rotates
		sum.invalidated += p.invalidated
	}
	t.Logf("seeds reach %+v", sum)
	if sum.mruHits == 0 || sum.rotates == 0 || sum.invalidated == 0 {
		t.Fatalf("seeds reach %+v; want every path taken", sum)
	}
}

// recencyPaths counts the steps of one check that took each fast path,
// and the invalidations that hit a resident line.
type recencyPaths struct{ mruHits, rotates, invalidated int }

func checkRecencyStack(t *testing.T, waysIn, setsLog, span uint8, seed uint64, n uint16, inval uint8) (paths recencyPaths) {
	t.Helper()
	ways, sets := 1+int(waysIn)%MaxWays, 1<<(setsLog%4)
	c := MustNew(Config{SizeBytes: 64 * ways * sets, LineBytes: 64, Ways: ways, HitLatency: 1})
	ref := make([]refSet, sets)
	for s := range ref {
		ref[s] = refSet{lines: make([]uint64, ways)}
		for w := 0; w < ways; w++ {
			ref[s].order = append(ref[s].order, w)
		}
	}
	r := stats.NewRNG(seed)
	lines := 1 + int(span)%(4*ways*sets+4)
	for i := 0; i < int(n)%4096; i++ {
		line := uint64(r.Intn(lines))
		set := int(line) % sets
		if r.Intn(8) < int(inval%4) {
			want := ref[set].invalidate(line)
			if got := c.InvalidateLine(line); got != want {
				t.Fatalf("step %d: InvalidateLine(%d) = %v, want %v", i, line, got, want)
			}
			if want {
				paths.invalidated++
			}
		} else {
			lo, hi := 0, ways
			partitioned := r.Intn(2) == 0
			if partitioned {
				lo = r.Intn(ways)
				hi = lo + 1 + r.Intn(ways-lo)
			}
			mru, full := ref[set].order[0], !slices.Contains(ref[set].lines, 0)
			wantHit, wantWay, wantEvicted, wantLine := ref[set].access(line, lo, hi)
			switch {
			case wantHit && wantWay == mru:
				paths.mruHits++
			case !wantHit && full && lo == 0 && hi == ways:
				paths.rotates++
			}
			var got Result
			if partitioned {
				got = c.AccessInWays(line<<6, 0, lo, hi)
			} else {
				hit, block, evicted := c.AccessHit(line<<6, 0)
				got = Result{Hit: hit, Block: block, Evicted: evicted}
				if evicted {
					got.EvictedLine = wantLine // AccessHit does not report it
				}
			}
			if got.Hit != wantHit || int(got.Block) != set*ways+wantWay || got.Evicted != wantEvicted || got.EvictedLine != wantLine {
				t.Fatalf("step %d (line %d, ways [%d, %d)): got hit=%v block=%d evicted=%v line=%d, want hit=%v block=%d evicted=%v line=%d",
					i, line, lo, hi, got.Hit, got.Block, got.Evicted, got.EvictedLine, wantHit, set*ways+wantWay, wantEvicted, wantLine)
			}
		}
		if order := stackOrder(c, set); !slices.Equal(order, ref[set].order) {
			t.Fatalf("step %d: stack %v, reference %v", i, order, ref[set].order)
		}
		if ways < MaxWays && c.recency[set]>>(4*ways) != 0 {
			t.Fatalf("step %d: stack %#x has nibbles above %d ways", i, c.recency[set], ways)
		}
		if holes, want := int(c.holes[set]), countOf(ref[set].lines, 0); holes != want {
			t.Fatalf("step %d: set %d counts %d holes, has %d invalid ways", i, set, holes, want)
		}
	}
	return paths
}

// countOf returns how many elements of xs equal v.
func countOf(xs []uint64, v uint64) int {
	n := 0
	for _, x := range xs {
		if x == v {
			n++
		}
	}
	return n
}

// TestWaysCappedAtSixteen: a recency stack holds sixteen ways, so New
// accepts 16 and rejects 17.
func TestWaysCappedAtSixteen(t *testing.T) {
	if _, err := New(Config{SizeBytes: 16 * 64, LineBytes: 64, Ways: 16}); err != nil {
		t.Fatalf("16 ways rejected: %v", err)
	}
	c, err := New(Config{SizeBytes: 17 * 64, LineBytes: 64, Ways: 17})
	if err == nil || c != nil || !errors.Is(err, ErrBadConfig) {
		t.Fatalf("17 ways: got %v, %v; want an ErrBadConfig error", c, err)
	}
}
