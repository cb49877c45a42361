package tlb

import (
	"fmt"
	"testing"

	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// refEntry is one translation in the reference model.
type refEntry struct {
	page  uint64
	owner uint8
}

// refTLB is a naive true-LRU TLB: each set is a slice of its valid
// entries in recency order, least recently used first.
type refTLB struct {
	sets, ways int
	lru        [][]refEntry
}

func newRef(cfg Config) *refTLB {
	return &refTLB{sets: cfg.Sets, ways: cfg.Ways, lru: make([][]refEntry, cfg.Sets)}
}

// probe looks page up for ctx, filling on a miss. It reports the hit
// and, when the fill displaced a valid entry, that entry.
func (r *refTLB) probe(page uint64, ctx uint8) (hit bool, victim refEntry, evicted bool) {
	set := int(page % uint64(r.sets))
	s := r.lru[set]
	for i, e := range s {
		if e.page == page {
			// A hit refreshes recency but not ownership: the entry
			// still names the context that inserted it.
			r.lru[set] = append(append(s[:i:i], s[i+1:]...), e)
			return true, refEntry{}, false
		}
	}
	if len(s) == r.ways {
		victim, evicted = s[0], true
		s = s[1:]
	}
	r.lru[set] = append(append([]refEntry(nil), s...), refEntry{page: page, owner: ctx})
	return false, victim, evicted
}

// collector records every event the TLB emits.
type collector struct{ events []trace.Event }

func (c *collector) OnEvents(events []trace.Event) { c.events = append(c.events, events...) }

// TestProbeMatchesReference drives random probe streams from several
// contexts through the TLB and the naive reference, checking after
// every probe: the hit bit and latency; that a miss fills the first
// invalid way of its set, leaving every valid entry in place, and
// otherwise replaces exactly the reference's LRU entry; that
// KindTLBConflict fires once, fully attributed, on exactly the
// cross-context evictions; and that Stats counts probes, misses and
// conflicts.
func TestProbeMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(),
		{Sets: 8, Ways: 1, HitCycles: 2, WalkCycles: 50},
		{Sets: 2, Ways: 8, HitCycles: 1, WalkCycles: 90},
	} {
		t.Run(fmt.Sprintf("%dx%d", cfg.Sets, cfg.Ways), func(t *testing.T) {
			var got collector
			tl := New(cfg, trace.NewBatcher(&got, 1))
			ref := newRef(cfg)
			r := stats.NewRNG(uint64(cfg.Sets*31 + cfg.Ways))
			span := 3 * cfg.Sets * cfg.Ways
			var misses, conflicts, fills, evictions uint64
			const probes = 20000
			for i := 0; i < probes; i++ {
				page := uint64(r.Intn(span))
				if r.Intn(3) == 0 {
					page = uint64(r.Intn(cfg.Sets * cfg.Ways / 2))
				}
				ctx := uint8(r.Intn(4))
				addr := page<<PageShift | uint64(r.Intn(1<<PageShift))
				set := tl.SetOf(addr)
				if set != int(page%uint64(cfg.Sets)) {
					t.Fatalf("probe %d: SetOf(%#x) = %d", i, addr, set)
				}
				base := set * cfg.Ways
				beforePages := append([]uint64(nil), tl.pages[base:base+cfg.Ways]...)
				beforeValid := append([]bool(nil), tl.valid[base:base+cfg.Ways]...)
				nevents := len(got.events)
				stamp := uint64(1000 + i)

				lat, hit := tl.Probe(stamp-1, stamp, ctx, addr)
				wantHit, victim, evicted := ref.probe(page, ctx)

				if hit != wantHit {
					t.Fatalf("probe %d (page %d, ctx %d): hit=%v, reference %v", i, page, ctx, hit, wantHit)
				}
				if want := map[bool]uint64{true: cfg.HitCycles, false: cfg.WalkCycles}[hit]; lat != want {
					t.Fatalf("probe %d: latency %d, want %d", i, lat, want)
				}
				if hit {
					if len(got.events) != nevents {
						t.Fatalf("probe %d: a hit emitted an event", i)
					}
					continue
				}
				misses++
				firstInvalid := -1
				for w, v := range beforeValid {
					if !v {
						firstInvalid = w
						break
					}
				}
				filled := -1
				for w := 0; w < cfg.Ways; w++ {
					if tl.valid[base+w] && tl.pages[base+w] == page && (!beforeValid[w] || beforePages[w] != page) {
						filled = w
					}
				}
				if filled < 0 {
					t.Fatalf("probe %d: miss on page %d filled no way", i, page)
				}
				for w := 0; w < cfg.Ways; w++ {
					if w != filled && (tl.valid[base+w] != beforeValid[w] || tl.pages[base+w] != beforePages[w]) {
						t.Fatalf("probe %d: fill of way %d also changed way %d", i, filled, w)
					}
				}
				if firstInvalid >= 0 {
					fills++
					if filled != firstInvalid || evicted {
						t.Fatalf("probe %d: filled way %d (reference evicted=%v), want first invalid way %d",
							i, filled, evicted, firstInvalid)
					}
				} else {
					evictions++
					if !evicted || beforePages[filled] != victim.page {
						t.Fatalf("probe %d: replaced page %d, reference LRU victim %d (evicted=%v)",
							i, beforePages[filled], victim.page, evicted)
					}
				}
				var want []trace.Event
				if evicted && victim.owner != ctx {
					conflicts++
					want = []trace.Event{{Cycle: stamp, Kind: trace.KindTLBConflict, Actor: ctx, Victim: victim.owner, Unit: uint32(set)}}
				}
				if emitted := got.events[nevents:]; fmt.Sprint(emitted) != fmt.Sprint(want) {
					t.Fatalf("probe %d: events %+v, want %+v", i, emitted, want)
				}
			}
			if fills == 0 || evictions == 0 || conflicts == 0 || conflicts == evictions {
				t.Fatalf("stream left a path unexercised: %d fills, %d evictions, %d cross-context", fills, evictions, conflicts)
			}
			if s, want := tl.Stats(), (Stats{Lookups: probes, Misses: misses, Conflicts: conflicts}); s != want {
				t.Errorf("Stats = %+v, want %+v", s, want)
			}
			if tl.Config() != cfg {
				t.Errorf("Config = %+v, want %+v", tl.Config(), cfg)
			}
		})
	}
}

// TestCrossContextEvictionOnly pins the indicator on a direct-mapped
// TLB: a fill over another context's entry fires one attributed
// event, a fill over the filler's own entry fires none, and so does a
// fill of an empty way.
func TestCrossContextEvictionOnly(t *testing.T) {
	var got collector
	tl := New(Config{Sets: 4, Ways: 1, HitCycles: 1, WalkCycles: 100}, trace.NewBatcher(&got, 1))
	// Pages 3, 7 and 11 all map to set 3. Context 0 fills the empty
	// way, then evicts its own entry; context 1 then evicts context 0's.
	page := func(n uint64) uint64 { return (n*4 + 3) << PageShift }
	tl.Probe(0, 10, 0, page(0))
	tl.Probe(0, 11, 0, page(1))
	tl.Probe(0, 12, 1, page(2))
	want := []trace.Event{{Cycle: 12, Kind: trace.KindTLBConflict, Actor: 1, Victim: 0, Unit: 3}}
	if fmt.Sprint(got.events) != fmt.Sprint(want) {
		t.Fatalf("events %+v, want %+v", got.events, want)
	}
	if s := tl.Stats(); s != (Stats{Lookups: 3, Misses: 3, Conflicts: 1}) {
		t.Errorf("Stats = %+v", s)
	}
	// Without a listener the conflict is still counted.
	quiet := New(Config{Sets: 1, Ways: 1, HitCycles: 1, WalkCycles: 100}, nil)
	quiet.Probe(0, 0, 0, 0)
	quiet.Probe(0, 0, 1, 1<<PageShift)
	if quiet.Stats().Conflicts != 1 {
		t.Errorf("listener-less TLB counted %d conflicts, want 1", quiet.Stats().Conflicts)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero sets":         {Sets: 0, Ways: 4, HitCycles: 1, WalkCycles: 120},
		"sets not pow2":     {Sets: 12, Ways: 4, HitCycles: 1, WalkCycles: 120},
		"negative sets":     {Sets: -4, Ways: 4, HitCycles: 1, WalkCycles: 120},
		"zero ways":         {Sets: 16, Ways: 0, HitCycles: 1, WalkCycles: 120},
		"zero hit latency":  {Sets: 16, Ways: 4, HitCycles: 0, WalkCycles: 120},
		"zero walk latency": {Sets: 16, Ways: 4, HitCycles: 1, WalkCycles: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			New(cfg, nil)
		}()
	}
}
