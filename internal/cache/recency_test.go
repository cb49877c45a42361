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

// stackOrder decodes set's packed recency stack into way numbers,
// most recent first.
func stackOrder(c *Cache, set int) []int {
	out := make([]int, c.Ways())
	for i := range out {
		out[i] = int(c.recency[set]>>(4*i)) & 0xf
	}
	return out
}

// FuzzRecencyStackMatchesReference drives a cache of fuzzed geometry
// (1–16 ways, 1–8 sets) with random lines through AccessHit and
// through AccessInWays with random partition ranges [lo, hi), and a
// slice-based move-to-front LRU alongside: every access must agree on
// hit, way, eviction and evicted line, and after every access the
// packed stack must decode to the reference order, with the nibbles
// above Ways still zero.
func FuzzRecencyStackMatchesReference(f *testing.F) {
	f.Add(uint8(8), uint8(2), uint8(20), uint64(1), uint16(2000))
	f.Add(uint8(16), uint8(0), uint8(40), uint64(2), uint16(3000))
	f.Add(uint8(1), uint8(1), uint8(5), uint64(3), uint16(500))
	f.Add(uint8(3), uint8(3), uint8(0), uint64(4), uint16(1000))
	f.Fuzz(func(t *testing.T, waysIn, setsLog, span uint8, seed uint64, n uint16) {
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
			lo, hi := 0, ways
			partitioned := r.Intn(2) == 0
			if partitioned {
				lo = r.Intn(ways)
				hi = lo + 1 + r.Intn(ways-lo)
			}
			wantHit, wantWay, wantEvicted, wantLine := ref[set].access(line, lo, hi)
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
				t.Fatalf("access %d (line %d, ways [%d, %d)): got hit=%v block=%d evicted=%v line=%d, want hit=%v block=%d evicted=%v line=%d",
					i, line, lo, hi, got.Hit, got.Block, got.Evicted, got.EvictedLine, wantHit, set*ways+wantWay, wantEvicted, wantLine)
			}
			if order := stackOrder(c, set); !slices.Equal(order, ref[set].order) {
				t.Fatalf("access %d: stack %v, reference %v", i, order, ref[set].order)
			}
			if ways < MaxWays && c.recency[set]>>(4*ways) != 0 {
				t.Fatalf("access %d: stack %#x has nibbles above %d ways", i, c.recency[set], ways)
			}
		}
	})
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
