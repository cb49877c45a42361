// Package pool provides the size-classed, sync.Pool-backed scratch
// buffers shared by the analysis pipeline: label series, running
// minima, discretized-histogram feature vectors, k-means scratch, and
// density slices. A detector run borrows buffers, uses them strictly
// within the call, and returns them, so repeated scenario jobs on the
// experiment runner reach a steady state where the analysis hot path
// allocates nothing per job.
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

// typedPools is one size-classed pool family. Entries are stored as
// *[]T so Put does not box a slice header per call; the pointer
// travels with the buffer.
type typedPools[T any] struct {
	classes [numClasses]sync.Pool
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
	if v := p.classes[c].Get(); v != nil {
		s := (*(v.(*[]T)))[:n]
		var zero T
		for i := range s {
			s[i] = zero
		}
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
	s = s[:cap(s)]
	p.classes[cl].Put(&s)
}

var (
	float64s typedPools[float64]
	ints     typedPools[int]
)

// Float64s returns a zeroed []float64 of length n from the arena.
func Float64s(n int) []float64 { return float64s.get(n) }

// PutFloat64s returns a buffer obtained from Float64s (or any
// []float64 the caller owns outright) to the arena.
func PutFloat64s(s []float64) { float64s.put(s) }

// Ints returns a zeroed []int of length n from the arena.
func Ints(n int) []int { return ints.get(n) }

// PutInts returns a buffer obtained from Ints (or any []int the
// caller owns outright) to the arena.
func PutInts(s []int) { ints.put(s) }
