// Package pool provides the size-classed, sync.Pool-backed float64
// buffers shared by the analysis pipeline: the oscillation detector's
// label series, running minima and correlogram copies, and the burst
// detector's discretized-histogram feature vectors. A detector run
// borrows buffers, uses them strictly within the call, and returns
// them, so repeated scenario jobs on the experiment runner reach a
// steady state where the analysis hot path allocates nothing per job.
//
// Ownership contract (see DESIGN.md §12): Get transfers exclusive
// ownership of a zeroed, exactly-sized buffer to the caller; Put
// transfers it back and the caller must not touch the buffer again.
// A buffer that escapes into a long-lived result (a Report, a figure
// row) is simply never Put — the pool imposes no obligation, only an
// opportunity. Buffers are zeroed on Get, never on Put, so a recycled
// buffer is indistinguishable from a fresh make(): pooling cannot
// change any computed value, and the golden-verdict corpus pins that.
//
// All functions are safe for concurrent use; the zero-size request
// returns nil without touching any pool.
package pool

import "sync"

// numClasses covers buffer capacities up to 2^31 entries; requests
// beyond the largest class fall back to plain make/discard.
const numClasses = 32

// class returns the smallest c with 1<<c >= n.
func class(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// typedPools is one size-classed pool family. A pooled buffer travels
// boxed as a *[]T, so sync.Pool stores a pointer and never boxes a
// slice header. Callers hold bare slices, so get parks the emptied box
// in boxes and put takes one back from there: a warm Get/Put round
// trip allocates nothing.
type typedPools[T any] struct {
	classes [numClasses]sync.Pool
	boxes   sync.Pool
}

// get returns a zeroed length-n buffer (capacity 1<<class(n)).
func (p *typedPools[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := class(n)
	if c >= numClasses {
		return make([]T, n)
	}
	if b, _ := p.classes[c].Get().(*[]T); b != nil {
		s := (*b)[:n]
		*b = nil
		p.boxes.Put(b)
		clear(s)
		return s
	}
	return make([]T, n, 1<<c)
}

// put recycles a buffer into the class its capacity fully covers.
func (p *typedPools[T]) put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	// Floor class: the buffer must satisfy every get of its class.
	cl := 0
	for 1<<(cl+1) <= c && cl+1 < numClasses {
		cl++
	}
	b, _ := p.boxes.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	*b = s[:c]
	p.classes[cl].Put(b)
}

var float64s typedPools[float64]

// Float64s returns a zeroed []float64 of length n from the arena.
func Float64s(n int) []float64 { return float64s.get(n) }

// PutFloat64s returns a buffer obtained from Float64s (or any
// []float64 the caller owns outright) to the arena.
func PutFloat64s(s []float64) { float64s.put(s) }
