package conflict

import (
	"errors"
	"testing"

	"cchunter/internal/bloom"
	"cchunter/internal/cache"
	"cchunter/internal/stats"
)

// driveCache replays a sequence of (addr, ctx) accesses through a real
// cache model feeding the tracker, returning per-access conflict flags.
func driveCache(c *cache.Cache, tr Tracker, accesses [][2]uint64) []bool {
	out := make([]bool, len(accesses))
	for i, a := range accesses {
		out[i] = tr.Observe(observationOf(c.Access(a[0], uint8(a[1])), uint8(a[1])))
	}
	return out
}

// observationOf is the Observation the simulator reports for an access
// by ctx that had cache result r.
func observationOf(r cache.Result, ctx uint8) Observation {
	return Observation{
		LineAddr:     r.LineAddr,
		Set:          r.Set,
		Block:        r.Block,
		Ctx:          ctx,
		Hit:          r.Hit,
		Evicted:      r.Evicted,
		EvictedLine:  r.EvictedLine,
		EvictedOwner: r.EvictedOwner,
	}
}

func smallCache() *cache.Cache {
	// 4 sets × 2 ways = 8 blocks.
	return cache.MustNew(cache.Config{SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 1})
}

func trackersUnderTest(blocks int) map[string]Tracker {
	return map[string]Tracker{
		"ideal": MustNewIdeal(blocks),
		"gen":   MustNewGenerational(GenerationalConfig{TotalBlocks: blocks, BloomBitsPerGen: 4096}),
	}
}

func TestColdMissesAreNotConflicts(t *testing.T) {
	for name, tr := range trackersUnderTest(8) {
		c := smallCache()
		accesses := [][2]uint64{{0x000, 0}, {0x040, 0}, {0x080, 0}}
		for i, conflict := range driveCache(c, tr, accesses) {
			if conflict {
				t.Errorf("%s: cold miss %d flagged as conflict", name, i)
			}
		}
	}
}

func TestClassicConflictMissDetected(t *testing.T) {
	// Set 0 has 2 ways; access three conflicting blocks A, B, C, then
	// A again. A was evicted while the cache had spare capacity, so
	// the re-access is a conflict miss.
	for name, tr := range trackersUnderTest(8) {
		c := smallCache()
		a := c.AddrForSet(0, 0, 1)
		b := c.AddrForSet(0, 1, 1)
		d := c.AddrForSet(0, 2, 1)
		got := driveCache(c, tr, [][2]uint64{{a, 0}, {b, 0}, {d, 0}, {a, 0}})
		if got[0] || got[1] || got[2] {
			t.Errorf("%s: early accesses flagged: %v", name, got)
		}
		if !got[3] {
			t.Errorf("%s: conflict miss on re-access not detected", name)
		}
	}
}

func TestCapacityMissNotConflictForIdeal(t *testing.T) {
	// Touch far more distinct blocks than the cache holds, then return
	// to the first: it fell off the full LRU stack, so this is a
	// capacity miss, not a conflict miss.
	c := smallCache() // 8 blocks
	tr := MustNewIdeal(8)
	var accesses [][2]uint64
	first := c.AddrForSet(0, 0, 1)
	accesses = append(accesses, [2]uint64{first, 0})
	for i := 0; i < 16; i++ { // 16 distinct blocks across sets
		accesses = append(accesses, [2]uint64{c.AddrForSet(uint32(i%4), i/4+1, 2), 0})
	}
	accesses = append(accesses, [2]uint64{first, 0})
	got := driveCache(c, tr, accesses)
	if got[len(got)-1] {
		t.Error("capacity miss misclassified as conflict by ideal tracker")
	}
}

func TestIdealStackEviction(t *testing.T) {
	tr := MustNewIdeal(4)
	for i := uint64(0); i < 6; i++ {
		tr.Observe(Observation{LineAddr: i, Hit: false})
	}
	if tr.StackSize() != 4 {
		t.Errorf("stack size = %d, want 4", tr.StackSize())
	}
	// Line 0 fell off; a miss on it is not a conflict.
	if tr.Observe(Observation{LineAddr: 0, Hit: false}) {
		t.Error("expired line flagged as conflict")
	}
	// Line 5 is still in the stack; a miss on it is a conflict.
	if !tr.Observe(Observation{LineAddr: 5, Hit: false}) {
		t.Error("in-stack miss not flagged")
	}
}

func TestIdealMoveToFrontKeepsHotLines(t *testing.T) {
	tr := MustNewIdeal(3)
	tr.Observe(Observation{LineAddr: 1})
	tr.Observe(Observation{LineAddr: 2})
	tr.Observe(Observation{LineAddr: 3})
	tr.Observe(Observation{LineAddr: 1}) // refresh 1
	tr.Observe(Observation{LineAddr: 4}) // evicts 2 (LRU), not 1
	if !tr.Observe(Observation{LineAddr: 1, Hit: false}) {
		t.Error("refreshed line should still be in stack")
	}
	if tr.Observe(Observation{LineAddr: 2, Hit: false}) {
		t.Error("stale line should have been dropped")
	}
}

func TestGenerationalTurnover(t *testing.T) {
	g := MustNewGenerational(GenerationalConfig{TotalBlocks: 8})
	// threshold = 2: every 2 distinct blocks advance a generation. The
	// eight cold misses fill the eight blocks in turn.
	for i := uint64(0); i < 8; i++ {
		g.Observe(Observation{LineAddr: i, Block: uint32(i), Hit: false})
	}
	if g.Generations() != 4 {
		t.Errorf("generations = %d, want 4", g.Generations())
	}
}

func TestGenerationalForgetsOldEvictions(t *testing.T) {
	// An eviction recorded in a generation must stop causing conflicts
	// once that generation is discarded (4 turnovers later).
	c := smallCache() // 4 sets × 2 ways; threshold 2
	g := MustNewGenerational(GenerationalConfig{TotalBlocks: 8, BloomBitsPerGen: 4096})
	a, b, d := c.AddrForSet(0, 0, 1), c.AddrForSet(0, 1, 1), c.AddrForSet(0, 2, 1)
	// d evicts a (recorded in the current generation's bloom); the
	// re-access is a conflict.
	if got := driveCache(c, g, [][2]uint64{{a, 0}, {b, 0}, {d, 0}, {a, 0}}); !got[3] {
		t.Fatal("fresh premature eviction not flagged")
	}
	// a is resident again (with d). Evict it once more, then cycle all
	// four generations through the other sets before re-accessing it.
	e, f := c.AddrForSet(0, 3, 1), c.AddrForSet(0, 4, 1)
	seq := [][2]uint64{{e, 0}, {f, 0}}
	for i := 0; i < 20; i++ {
		seq = append(seq, [2]uint64{c.AddrForSet(uint32(1+i%3), i, 2), 0})
	}
	driveCache(c, g, seq)
	if c.Contains(a) {
		t.Fatal("setup: a still resident")
	}
	if driveCache(c, g, [][2]uint64{{a, 0}})[0] {
		t.Error("eviction survived generation turnover")
	}
}

func TestGenerationalMatchesIdealOnChannelPattern(t *testing.T) {
	// On the covert channel's access pattern (two contexts ping-pong
	// on the same sets, well within capacity) the practical tracker
	// must agree with the ideal one almost everywhere.
	// Two contexts ping-pong on one set while the rest of the cache
	// stays quiet (working set 4 blocks of 8): every post-warmup miss
	// is a premature eviction. The covert channel keeps its footprint
	// within cache capacity for exactly this reason (see DESIGN.md).
	cIdeal, cGen := smallCache(), smallCache()
	blocks := 8
	ideal := MustNewIdeal(blocks)
	gen := MustNewGenerational(GenerationalConfig{TotalBlocks: blocks, BloomBitsPerGen: 8192})
	var accesses [][2]uint64
	for round := 0; round < 100; round++ {
		ctx := uint64(round % 2)
		for w := 0; w < 2; w++ {
			accesses = append(accesses, [2]uint64{cIdeal.AddrForSet(0, w+int(ctx)*2, 1), ctx})
		}
	}
	gotIdeal := driveCache(cIdeal, ideal, accesses)
	gotGen := driveCache(cGen, gen, accesses)
	disagree := 0
	for i := range gotIdeal {
		if gotIdeal[i] != gotGen[i] {
			disagree++
		}
	}
	if frac := float64(disagree) / float64(len(gotIdeal)); frac > 0.10 {
		t.Errorf("trackers disagree on %.1f%% of channel accesses", frac*100)
	}
	if ideal.Conflicts() == 0 {
		t.Error("channel pattern should produce conflict misses")
	}
}

func TestGenerationalRandomTrafficLowConflictRate(t *testing.T) {
	// A huge random working set produces capacity misses, not
	// conflicts; the practical tracker must not drown in false
	// positives (bloom FPs are possible but bounded).
	c := cache.MustNew(cache.DefaultL2())
	g := MustNewGenerational(GenerationalConfig{TotalBlocks: c.NumBlocks()})
	r := stats.NewRNG(5)
	flagged := 0
	n := 50000
	for i := 0; i < n; i++ {
		addr := uint64(r.Intn(1<<22)) << 6 // 4M lines >> cache capacity
		if g.Observe(observationOf(c.Access(addr, 0), 0)) {
			flagged++
		}
	}
	if frac := float64(flagged) / float64(n); frac > 0.25 {
		t.Errorf("random traffic conflict rate %.2f too high", frac)
	}
}

func TestResetClearsState(t *testing.T) {
	for name, tr := range trackersUnderTest(8) {
		tr.Observe(Observation{LineAddr: 1, Hit: false})
		tr.Observe(Observation{LineAddr: 2, Hit: false, Evicted: true, EvictedLine: 1})
		tr.Reset()
		if tr.Observe(Observation{LineAddr: 1, Hit: false}) {
			t.Errorf("%s: conflict detected after Reset", name)
		}
	}
}

func TestHardwareCost(t *testing.T) {
	g := MustNewGenerational(GenerationalConfig{TotalBlocks: 4096})
	bloomBits, metaBits := g.HardwareCost()
	if bloomBits != 4*4096 {
		t.Errorf("bloom bits = %d, want 4×N", bloomBits)
	}
	if metaBits != 4096*7 {
		t.Errorf("metadata bits = %d, want 7 per block", metaBits)
	}
}

func TestNames(t *testing.T) {
	if MustNewIdeal(4).Name() == "" || MustNewGenerational(GenerationalConfig{TotalBlocks: 4}).Name() == "" {
		t.Error("trackers must have names")
	}
}

func TestConstructorErrors(t *testing.T) {
	for name, f := range map[string]func() error{
		"ideal zero": func() error { _, err := NewIdeal(0); return err },
		"gen zero":   func() error { _, err := NewGenerational(GenerationalConfig{}); return err },
		"neg bits": func() error {
			_, err := NewGenerational(GenerationalConfig{TotalBlocks: 8, BloomBitsPerGen: -1})
			return err
		},
		"bloom too wide": func() error {
			_, err := NewGenerational(GenerationalConfig{TotalBlocks: 8, BloomBitsPerGen: bloom.MaxBits + 1})
			return err
		},
		"ideal neg":    func() error { _, err := NewIdeal(-4); return err },
		"gen negative": func() error { _, err := NewGenerational(GenerationalConfig{TotalBlocks: -1}); return err },
	} {
		err := f()
		if err == nil {
			t.Errorf("%s: expected error", name)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
}

func TestMustConstructorsPanicOnBadConfig(t *testing.T) {
	for name, f := range map[string]func(){
		"ideal": func() { MustNewIdeal(0) },
		"gen":   func() { MustNewGenerational(GenerationalConfig{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
