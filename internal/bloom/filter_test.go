package bloom

import (
	"fmt"

	"cchunter/internal/stats"
)

// filter_test.go holds a standard k-hash Bloom filter, the reference
// the Bank is checked against: one word array per filter, positions by
// double hashing reduced with %.

// Filter is a standard Bloom filter with k independent hash functions
// derived from a 128-bit double hash. The zero value is not usable; use
// New.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
	added  int
}

// New returns a Bloom filter with nbits bits and k hash functions,
// nbits rounded up to a multiple of 64.
func New(nbits int, k int) (*Filter, error) {
	if nbits <= 0 {
		return nil, fmt.Errorf("%w: filter needs a positive number of bits, got %d", ErrBadConfig, nbits)
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: filter needs at least one hash function, got %d", ErrBadConfig, k)
	}
	words := (nbits + 63) / 64
	return &Filter{
		bits:   make([]uint64, words),
		nbits:  uint64(words * 64),
		hashes: k,
	}, nil
}

// MustNew is New for sizes known to be valid; it panics on error.
func MustNew(nbits int, k int) *Filter {
	f, err := New(nbits, k)
	if err != nil {
		panic(err)
	}
	return f
}

// indexes derives the k bit positions for key via double hashing
// (Kirsch-Mitzenmacher): position_i = h1 + i*h2 mod nbits.
func (f *Filter) indexes(key uint64, out []uint64) []uint64 {
	h1 := stats.Mix64(key)
	h2 := stats.Mix64(key ^ 0x9e3779b97f4a7c15)
	h2 |= 1 // ensure odd so positions cycle through the table
	out = out[:0]
	for i := 0; i < f.hashes; i++ {
		out = append(out, (h1+uint64(i)*h2)%f.nbits)
	}
	return out
}

// Add inserts key into the filter.
func (f *Filter) Add(key uint64) {
	var buf [8]uint64
	for _, idx := range f.indexes(key, buf[:0]) {
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.added++
}

// Contains reports whether key may have been added. False positives are
// possible; false negatives are not.
func (f *Filter) Contains(key uint64) bool {
	var buf [8]uint64
	for _, idx := range f.indexes(key, buf[:0]) {
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear flash-clears the filter, as the tracker does when a generation
// is discarded.
func (f *Filter) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.added = 0
}

// Added returns how many keys have been inserted since the last Clear.
func (f *Filter) Added() int { return f.added }

// Bits returns the configured size of the filter in bits.
func (f *Filter) Bits() int { return int(f.nbits) }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() int { return f.hashes }

// FillRatio returns the fraction of bits currently set, a cheap proxy
// for the false-positive rate.
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(f.nbits)
}

// EstimatedFPR returns the classical Bloom false-positive estimate
// (1 - e^{-kn/m})^k for the current number of added keys.
func (f *Filter) EstimatedFPR() float64 {
	k := float64(f.hashes)
	n := float64(f.added)
	m := float64(f.nbits)
	inner := 1 - expNeg(k*n/m)
	fpr := 1.0
	for i := 0; i < f.hashes; i++ {
		fpr *= inner
	}
	return fpr
}

// expNeg computes e^{-x} with a short series/squaring scheme to avoid
// importing math in this tiny package. Accuracy of ~1e-9 is far beyond
// what an FPR estimate needs.
func expNeg(x float64) float64 {
	if x < 0 {
		return 1 / expNeg(-x)
	}
	// Argument reduction: e^-x = (e^-x/2^k)^(2^k).
	k := 0
	for x > 0.5 {
		x /= 2
		k++
	}
	// Taylor series for e^-x, x in [0, 0.5].
	term := 1.0
	sum := 1.0
	for i := 1; i < 16; i++ {
		term *= -x / float64(i)
		sum += term
	}
	for i := 0; i < k; i++ {
		sum *= sum
	}
	return sum
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// String describes the filter configuration and fill state.
func (f *Filter) String() string {
	return fmt.Sprintf("bloom.Filter{bits=%d k=%d added=%d fill=%.3f}",
		f.nbits, f.hashes, f.added, f.FillRatio())
}
