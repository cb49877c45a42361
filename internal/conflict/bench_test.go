package conflict

import (
	"testing"

	"cchunter/internal/cache"
	"cchunter/internal/stats"
)

// BenchmarkConflictTracker pits the flat, slab-allocated trackers
// against the retained map-based reference build of the ideal LRU
// stack on identical pre-generated observation streams. The stream
// comes from a real cache (the practical tracker keys its state by the
// block each access lands in), but is recorded before timing starts:
// no cache in the loop, so the numbers isolate tracker cost. The flat
// trackers must report 0 allocs/op; the reference shows what the
// rewrite removed.
func BenchmarkConflictTracker(b *testing.B) {
	const capacity = 1 << 12
	c := cache.MustNew(cache.Config{SizeBytes: 64 * capacity, LineBytes: 64, Ways: 8, HitLatency: 12})
	stream := make([]Observation, 1<<16)
	rng := stats.NewRNG(11)
	for i := range stream {
		ctx := uint8(rng.Intn(8))
		r := c.Access(uint64(rng.Intn(4*capacity))<<6, ctx)
		stream[i] = Observation{
			LineAddr: r.LineAddr, Set: r.Set, Block: r.Block, Ctx: ctx, Hit: r.Hit,
			Evicted: r.Evicted, EvictedLine: r.EvictedLine, EvictedOwner: r.EvictedOwner,
		}
	}
	trackers := map[string]Tracker{
		"ideal-flat":          MustNewIdeal(capacity),
		"ideal-map-reference": MustNewIdealReference(capacity),
		"generational-flat":   MustNewGenerational(GenerationalConfig{TotalBlocks: capacity}),
	}
	for name, tr := range trackers {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			tr.Reset()
			for i := 0; i < b.N; i++ {
				tr.Observe(stream[i&(len(stream)-1)])
			}
		})
	}
}
