// Package ring models a slotted ring interconnect connecting the cores
// to the address-sliced last-level cache, the contention medium of the
// lord-of-the-ring class of cross-core covert channels. Every L1 miss
// transits the ring from the issuing core's stop to the stop of the
// slice owning the line; a transit from one core waiting on a ring
// segment occupied by traffic from another core is the indicator event
// (KindRingContention). Like the divider, not every wait raises the
// event: only cross-context waits do.
package ring

import "cchunter/internal/trace"

// Config sets the ring parameters. The zero value means "no ring": the
// simulator leaves the interconnect unmodelled (its pre-ring behaviour)
// unless Stops is positive.
type Config struct {
	// Stops is the number of ring stops; one core and one LLC slice
	// hang off each stop. Zero disables the ring entirely.
	Stops int
	// HopCycles is how long a transit occupies each directed segment it
	// crosses, and the per-hop latency it adds to the miss.
	HopCycles uint64
}

// DefaultConfig returns a ring with one stop per core of the default
// four-core machine and a 4-cycle hop — a slot time in the range of
// real ring interconnects once scaled to the 2.5 GHz clock.
func DefaultConfig() Config {
	return Config{Stops: 4, HopCycles: 4}
}

// Ring is the interconnect state. The engine serializes calls in global
// time order. Segments are directed: segment s (s < Stops) carries
// clockwise traffic from stop s to stop s+1; segment Stops+j carries
// counter-clockwise traffic into stop j from stop j+1.
type Ring struct {
	cfg       Config
	sliceMask uint64 // stops-1 when Stops is a power of two, else 0
	busyUntil []uint64
	occupant  []uint8

	// cw and ccw list, twice over, the segments a transit crosses in
	// hop order going round the ring in each direction, so every route
	// is a window of one of them: h clockwise hops from stop s cross
	// cw[s:s+h], h counter-clockwise hops ccw[Stops-s:Stops-s+h].
	cw, ccw []int

	listener trace.Listener

	transits   uint64
	contention uint64
}

// New returns a ring. It panics on a non-positive stop count — callers
// gate construction on Config.Stops > 0.
func New(cfg Config, l trace.Listener) *Ring {
	if cfg.Stops <= 0 {
		panic("ring: Stops must be positive")
	}
	if cfg.HopCycles == 0 {
		cfg.HopCycles = DefaultConfig().HopCycles
	}
	n := 2 * cfg.Stops
	r := &Ring{
		cfg:       cfg,
		busyUntil: make([]uint64, n),
		occupant:  make([]uint8, n),
		cw:        make([]int, n),
		ccw:       make([]int, n),
		listener:  l,
	}
	for i := range r.cw {
		// Clockwise, stop j leaves on segment j; counter-clockwise,
		// the hop into stop j uses segment Stops+j, and the stops
		// count down.
		r.cw[i] = i % cfg.Stops
		r.ccw[i] = cfg.Stops + (cfg.Stops - 1 - i%cfg.Stops)
	}
	if s := uint64(cfg.Stops); s&(s-1) == 0 {
		r.sliceMask = s - 1
	}
	return r
}

// SliceOf returns the LLC slice (= ring stop) owning a cache line, the
// usual low-bits address hash.
func (r *Ring) SliceOf(lineAddr uint64) int {
	if r.sliceMask != 0 || r.cfg.Stops == 1 {
		return int(lineAddr & r.sliceMask)
	}
	return int(lineAddr % uint64(r.cfg.Stops))
}

// Transit moves one cache-line request from the issuing core's ring
// stop to the slice owning lineAddr, taking the shorter direction
// (clockwise on ties). Each hop reserves its directed segment for
// HopCycles; a hop that finds its segment reserved by another hardware
// context raises one KindRingContention event per transit (Actor =
// waiter, Victim = occupant, Unit = segment), stamped at the issue
// cycle so the global event stream stays time-ordered. It returns the
// arrival cycle and the cycles spent waiting.
func (r *Ring) Transit(now, stamp uint64, ctx uint8, core int, lineAddr uint64) (done, waited uint64) {
	stops := r.cfg.Stops
	src := core
	if src >= stops {
		src %= stops // more cores than stops: cores share stops
	}
	dst := r.SliceOf(lineAddr)
	r.transits++
	if src == dst {
		return now, 0 // local slice: no ring traversal
	}
	// Both stops lie in [0, stops), so the clockwise distance is one
	// wrap away from dst-src and the two directions sum to a full
	// circle: no division on the per-miss path. The shorter direction
	// wins, clockwise on ties; a route is under a full circle, so its
	// window fits in the doubled segment lists.
	cw := dst - src
	if cw < 0 {
		cw += stops
	}
	route := r.cw[src : src+cw]
	if ccw := stops - cw; ccw < cw {
		route = r.ccw[stops-src : stops-src+ccw]
	}
	hop := r.cfg.HopCycles
	busyUntil := r.busyUntil
	cursor := now
	emitted := false
	for _, seg := range route {
		start := cursor
		if busyUntil[seg] > start {
			waited += busyUntil[seg] - start
			start = busyUntil[seg]
			if r.occupant[seg] != ctx && !emitted {
				emitted = true
				r.contention++
				if r.listener != nil {
					r.listener.OnEvent(trace.Event{
						Cycle:  stamp,
						Kind:   trace.KindRingContention,
						Actor:  ctx,
						Victim: r.occupant[seg],
						Unit:   uint32(seg),
					})
				}
			}
		}
		busyUntil[seg] = start + hop
		r.occupant[seg] = ctx
		cursor = start + hop
	}
	return cursor, waited
}

// Stats reports cumulative ring activity.
type Stats struct {
	Transits   uint64 // total slice transits issued
	Contention uint64 // cross-context segment waits (indicator events)
}

// Stats returns a snapshot of the counters.
func (r *Ring) Stats() Stats {
	return Stats{Transits: r.transits, Contention: r.contention}
}
