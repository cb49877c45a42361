package cache

import (
	"errors"
	"testing"
	"testing/quick"

	"cchunter/internal/stats"
)

func small() *Cache {
	// 4 sets × 2 ways × 64 B lines.
	return MustNew(Config{SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 4})
}

func TestGeometry(t *testing.T) {
	c := MustNew(DefaultL2())
	if c.NumSets() != 512 {
		t.Errorf("L2 sets = %d, want 512 (paper geometry)", c.NumSets())
	}
	if c.NumBlocks() != 4096 || c.Ways() != 8 || c.cfg.LineBytes != 64 {
		t.Errorf("L2 geometry: blocks=%d ways=%d line=%d", c.NumBlocks(), c.Ways(), c.cfg.LineBytes)
	}
	l1 := MustNew(DefaultL1())
	if l1.NumSets() != 64 {
		t.Errorf("L1 sets = %d, want 64", l1.NumSets())
	}
	if l1.HitLatency() >= MustNew(DefaultL2()).HitLatency() {
		t.Error("L1 should be faster than L2")
	}
}

func TestBadGeometryErrors(t *testing.T) {
	for name, cfg := range map[string]Config{
		"line not power of two": {SizeBytes: 512, LineBytes: 48, Ways: 2},
		"zero ways":             {SizeBytes: 512, LineBytes: 64, Ways: 0},
		"sets not power of two": {SizeBytes: 3 * 64 * 2, LineBytes: 64, Ways: 2},
	} {
		c, err := New(cfg)
		if err == nil || c != nil {
			t.Errorf("%s: expected error, got %v", name, c)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
}

func TestMustNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{SizeBytes: 512, LineBytes: 48, Ways: 2})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	r := c.Access(0x1000, 1)
	if r.Hit {
		t.Error("cold access should miss")
	}
	r = c.Access(0x1000, 1)
	if !r.Hit {
		t.Error("second access should hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 0 {
		t.Errorf("stats: %+v", s)
	}
}

func TestSetMapping(t *testing.T) {
	c := small()
	// Addresses 64 bytes apart map to consecutive sets.
	if c.Access(0, 0).Set != 0 || c.Access(64, 0).Set != 1 || c.Access(64*4, 0).Set != 0 {
		t.Error("set mapping wrong")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 ways
	a := c.AddrForSet(0, 0, 1)
	b := c.AddrForSet(0, 1, 1)
	d := c.AddrForSet(0, 2, 1)
	c.Access(a, 0)
	c.Access(b, 0)
	c.Access(a, 0) // a is now MRU
	r := c.Access(d, 1)
	if !r.Evicted {
		t.Fatal("filling a full set must evict")
	}
	if r.EvictedLine != b>>6 {
		t.Errorf("evicted %x, want LRU block %x", r.EvictedLine, b>>6)
	}
	if r.EvictedOwner != 0 {
		t.Errorf("evicted owner = %d, want 0", r.EvictedOwner)
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Error("residency after eviction wrong")
	}
}

// ownerOfAddr returns the owning context of addr's block and whether
// it is resident.
func ownerOfAddr(c *Cache, addr uint64) (uint8, bool) {
	lineAddr := addr >> c.lineShift
	setBase := int(lineAddr&c.setMask) * c.cfg.Ways
	key := tagKey(lineAddr)
	for i := 0; i < c.cfg.Ways; i++ {
		if tagOf(c.tags[setBase+i]) == key {
			return ownerOf(c.tags[setBase+i]), true
		}
	}
	return 0, false
}

func TestOwnerUpdatesOnAccess(t *testing.T) {
	c := small()
	c.Access(0x40, 3)
	if o, ok := ownerOfAddr(c, 0x40); !ok || o != 3 {
		t.Errorf("owner = %d,%v", o, ok)
	}
	c.Access(0x40, 5)
	if o, _ := ownerOfAddr(c, 0x40); o != 5 {
		t.Errorf("owner after re-access = %d, want 5", o)
	}
	if _, ok := ownerOfAddr(c, 0xdead000); ok {
		t.Error("absent block should have no owner")
	}
}

func TestAddrForSetRoundTrip(t *testing.T) {
	c := MustNew(DefaultL2())
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		set := uint32(r.Intn(c.NumSets()))
		way := r.Intn(64)
		base := uint64(r.Intn(1 << 16))
		addr := c.AddrForSet(set, way, base)
		return c.Access(addr, 0).Set == set
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Distinct (way, base) pairs give distinct line addresses.
	seen := map[uint64]bool{}
	for way := 0; way < 16; way++ {
		for base := uint64(0); base < 4; base++ {
			la := c.AddrForSet(7, way, base) >> 6
			if seen[la] {
				t.Fatalf("alias at way=%d base=%d", way, base)
			}
			seen[la] = true
		}
	}
}

func TestAddrForSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	small().AddrForSet(99, 0, 0)
}

func TestEvictionSetDefeatsResidency(t *testing.T) {
	// Priming a set with `ways` fresh conflicting blocks evicts all
	// previous residents — the covert channel's core mechanism.
	c := MustNew(DefaultL2())
	victim := c.AddrForSet(100, 0, 7)
	c.Access(victim, 1)
	for w := 0; w < c.Ways(); w++ {
		c.Access(c.AddrForSet(100, w, 9), 2)
	}
	if c.Contains(victim) {
		t.Error("prime did not evict the victim block")
	}
	if r := c.Access(victim, 1); r.Hit {
		t.Error("probe after prime should miss")
	}
}

func TestNoCrossSetInterference(t *testing.T) {
	c := MustNew(DefaultL2())
	resident := c.AddrForSet(5, 0, 1)
	c.Access(resident, 0)
	// Hammer a different set hard.
	for w := 0; w < 64; w++ {
		c.Access(c.AddrForSet(6, w, 2), 1)
	}
	if !c.Contains(resident) {
		t.Error("traffic in another set evicted an unrelated block")
	}
}

func TestStatsEvictionsCount(t *testing.T) {
	c := small()
	for w := 0; w < 5; w++ {
		c.Access(c.AddrForSet(1, w, 0), 0)
	}
	s := c.Stats()
	if s.Misses != 5 || s.Evictions != 3 {
		t.Errorf("stats: %+v (want 5 misses, 3 evictions)", s)
	}
}

// TestAccessIntoOverwritesResult drives two identical caches through
// the same miss, hit and eviction sequence, one through Access and one
// through AccessInto with a result slot reused across calls and
// poisoned before each: every field must come from the access, never
// from the slot's previous contents.
func TestAccessIntoOverwritesResult(t *testing.T) {
	byValue, inPlace := small(), small()
	var res Result
	for i, addr := range []uint64{0, 0, 256, 512, 0, 768, 256} {
		want := byValue.Access(addr, uint8(i))
		res = Result{Hit: true, Set: 99, Block: 99, LineAddr: 99, Evicted: true, EvictedLine: 99, EvictedOwner: 99}
		inPlace.AccessInto(&res, addr, uint8(i), 0, inPlace.Ways())
		if res != want {
			t.Errorf("access %d (addr %#x): AccessInto %+v, Access %+v", i, addr, res, want)
		}
	}
	if byValue.Stats().Evictions == 0 {
		t.Fatal("sequence never evicted; the eviction fields went unchecked")
	}
}

// TestResultBlockHoldsLine checks Result.Block against the tag array
// on random partitioned traffic: after every access the reported block
// lies in the line's set and holds the line, a hit reports the way the
// line already occupied, and an eviction reports the block the victim
// occupied — the coordinates a per-block tracker relies on.
func TestResultBlockHoldsLine(t *testing.T) {
	c := MustNew(Config{SizeBytes: 2048, LineBytes: 64, Ways: 4, HitLatency: 1})
	r := stats.NewRNG(13)
	evictions := 0
	for i := 0; i < 5000; i++ {
		addr := uint64(r.Intn(96)) << 6
		lo := r.Intn(c.Ways())
		hi := lo + 1 + r.Intn(c.Ways()-lo)
		before := append([]uint64(nil), c.tags...)
		res := c.AccessInWays(addr, uint8(r.Intn(4)), lo, hi)
		if int(res.Block)/c.Ways() != int(res.Set) {
			t.Fatalf("access %d: block %d outside set %d", i, res.Block, res.Set)
		}
		if decodeTag(c.tags[res.Block]) != res.LineAddr {
			t.Fatalf("access %d: block %d does not hold line %#x", i, res.Block, res.LineAddr)
		}
		if res.Hit && decodeTag(before[res.Block]) != res.LineAddr {
			t.Fatalf("access %d: hit reports block %d, which did not hold the line", i, res.Block)
		}
		if !res.Hit {
			if w := int(res.Block) % c.Ways(); w < lo || w >= hi {
				t.Fatalf("access %d: miss installed in way %d outside [%d, %d)", i, w, lo, hi)
			}
		}
		if res.Evicted {
			evictions++
			if before[res.Block] == invalidTag || decodeTag(before[res.Block]) != res.EvictedLine {
				t.Fatalf("access %d: evicted line %#x was not in block %d", i, res.EvictedLine, res.Block)
			}
		}
	}
	if evictions == 0 {
		t.Fatal("stream never evicted; the eviction path went unchecked")
	}
}
