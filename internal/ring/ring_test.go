package ring

import (
	"testing"

	"cchunter/internal/trace"
)

// modPath is the textbook route a transit from core to slice takes on
// a ring of the given size, written with the modulo arithmetic Transit
// avoids: the clockwise and counter-clockwise hop counts, the shorter
// one chosen, ties going clockwise. dir is +1 (clockwise) or -1.
func modPath(stops, core, slice int) (dir, hops int) {
	src := core % stops
	cw := (slice - src + stops) % stops
	ccw := (src - slice + stops) % stops
	if ccw < cw {
		return -1, ccw
	}
	return 1, cw
}

// modSegments lists the directed segments a transit crosses, in hop
// order, using the Ring's segment numbering.
func modSegments(stops, core, slice int) []int {
	dir, hops := modPath(stops, core, slice)
	segs := make([]int, 0, hops)
	stop := core % stops
	for h := 0; h < hops; h++ {
		next := (stop + dir + stops) % stops
		if dir > 0 {
			segs = append(segs, stop)
		} else {
			segs = append(segs, stops+next)
		}
		stop = next
	}
	return segs
}

// eventLog records every event the ring emits.
type eventLog struct{ events []trace.Event }

func (l *eventLog) OnEvent(e trace.Event) { l.events = append(l.events, e) }

// TestTransitPathMatchesModuloFormula checks every (core, slice) pair
// on rings of 1–8 stops, powers of two or not, on an idle ring: the
// transit crosses exactly the segments of the modulo-formula route
// (ties clockwise), takes hops×HopCycles, and a local slice costs
// nothing. Cores past the last stop share stops, so they are included
// too.
func TestTransitPathMatchesModuloFormula(t *testing.T) {
	for stops := 1; stops <= 8; stops++ {
		for core := 0; core < stops+2; core++ {
			for slice := 0; slice < stops; slice++ {
				var log eventLog
				r := New(Config{Stops: stops, HopCycles: 3}, &log)
				const now = 1000
				done, waited := r.Transit(now, now, 1, core, uint64(slice))
				want := modSegments(stops, core, slice)
				if got := done - now; got != uint64(len(want))*3 {
					t.Errorf("stops %d core %d slice %d: took %d cycles, want %d hops × 3",
						stops, core, slice, got, len(want))
				}
				if waited != 0 || len(log.events) != 0 {
					t.Errorf("stops %d core %d slice %d: idle ring waited %d, %d events",
						stops, core, slice, waited, len(log.events))
				}
				used := map[int]bool{}
				for seg, until := range r.busyUntil {
					if until != 0 {
						used[seg] = true
					}
				}
				if len(used) != len(want) {
					t.Errorf("stops %d core %d slice %d: crossed segments %v, want %v",
						stops, core, slice, used, want)
					continue
				}
				for h, seg := range want {
					if !used[seg] {
						t.Errorf("stops %d core %d slice %d: segment %d (hop %d) not crossed; crossed %v",
							stops, core, slice, seg, h, used)
					}
					// Hop h starts h hops after issue and holds its
					// segment for one hop time.
					if from, until := r.busyFrom[seg], r.busyUntil[seg]; from != now+uint64(h)*3 || until != from+3 {
						t.Errorf("stops %d core %d slice %d: segment %d held [%d, %d), want [%d, %d)",
							stops, core, slice, seg, from, until, now+uint64(h)*3, now+uint64(h+1)*3)
					}
				}
				if st := r.Stats(); st.Transits != 1 || st.Contention != 0 {
					t.Errorf("stops %d core %d slice %d: stats %+v", stops, core, slice, st)
				}
			}
		}
	}
}

// TestTransitContentionInvariants drives every ring size with a dense,
// deterministic stream of overlapping transits from several contexts
// and checks each transit against the invariants of the model: it
// takes at least hops×HopCycles, it waits exactly the cycles its
// segments were still held, at most one KindRingContention fires per
// transit, and one fires exactly when some wait was on a segment held
// by a different context. Segment occupancy is tracked here from the
// modulo-formula route, independently of the Ring's own bookkeeping.
// The stream must produce both kinds of wait: queuing only behind
// one's own traffic is silent.
func TestTransitContentionInvariants(t *testing.T) {
	const hop = 4
	silentWaits := 0
	for stops := 1; stops <= 8; stops++ {
		var log eventLog
		r := New(Config{Stops: stops, HopCycles: hop}, &log)
		until := make([]uint64, 2*stops)
		owner := make([]uint8, 2*stops)
		x := uint64(stops)*0x9e3779b97f4a7c15 | 1
		next := func(n uint64) uint64 { // xorshift64
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x % n
		}
		now := uint64(0)
		for i := 0; i < 4000; i++ {
			now += next(3) // many transits share or straddle a hop time
			ctx := uint8(next(4))
			core := int(next(uint64(stops) + 1))
			line := next(1 << 20)
			slice := int(line % uint64(stops))
			before := len(log.events)
			done, waited := r.Transit(now, now, ctx, core, line)
			segs := modSegments(stops, core, slice)

			cursor, wantWait, cross := now, uint64(0), -1
			for _, seg := range segs {
				start := cursor
				if until[seg] > start {
					wantWait += until[seg] - start
					start = until[seg]
					if owner[seg] != ctx && cross < 0 {
						cross = seg
					}
				}
				until[seg], owner[seg] = start+hop, ctx
				cursor = start + hop
			}
			if done != cursor || waited != wantWait {
				t.Fatalf("stops %d transit %d: done %d waited %d, want %d and %d",
					stops, i, done, waited, cursor, wantWait)
			}
			if done-now < uint64(len(segs))*hop {
				t.Fatalf("stops %d transit %d: took %d cycles for %d hops", stops, i, done-now, len(segs))
			}
			if len(segs) == 0 && done != now {
				t.Fatalf("stops %d transit %d: local slice cost %d cycles", stops, i, done-now)
			}
			got := log.events[before:]
			if wantWait > 0 && cross < 0 {
				silentWaits++
			}
			switch {
			case len(got) > 1:
				t.Fatalf("stops %d transit %d: %d contention events, want at most 1", stops, i, len(got))
			case cross < 0 && len(got) != 0:
				t.Fatalf("stops %d transit %d: event %+v without a cross-context wait", stops, i, got[0])
			case cross >= 0 && len(got) != 1:
				t.Fatalf("stops %d transit %d: cross-context wait on segment %d raised no event", stops, i, cross)
			case len(got) == 1:
				e := got[0]
				if e.Kind != trace.KindRingContention || e.Cycle != now || e.Actor != ctx ||
					e.Victim == ctx || e.Unit != uint32(cross) {
					t.Fatalf("stops %d transit %d: event %+v, want ring contention at %d by %d on segment %d",
						stops, i, e, now, ctx, cross)
				}
			}
		}
		if st := r.Stats(); st.Transits != 4000 || st.Contention != uint64(len(log.events)) {
			t.Errorf("stops %d: stats %+v with %d events", stops, st, len(log.events))
		}
		if stops > 1 && len(log.events) == 0 {
			t.Errorf("stops %d: no cross-context wait in the stream", stops)
		}
	}
	if silentWaits == 0 {
		t.Error("no same-context-only wait in the stream")
	}
}
