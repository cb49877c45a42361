// Package bloom implements the Bloom filter bank of CC-Hunter's
// practical conflict-miss tracker (§V-A, Figure 9). Each cache
// "generation" owns one three-hash Bloom filter that remembers the tags
// of blocks replaced while that generation was live; a hit on an
// incoming tag means the block was recently evicted before the cache
// reached full capacity — i.e. a conflict miss.
//
// The filters of a bank share one geometry and one set of hash
// functions, so the bank stores them bit-sliced, as a hardware bank of
// same-size filters probed in parallel would: byte i holds bit i of
// every filter, one filter per bit of the byte. "Is the tag in any
// filter?" is then the AND of the three probed bytes, an insert ORs
// one bit into each, and discarding a filter clears one bit column.
// A tag's three positions travel packed in one word (ProbeBits bits
// apiece), so a caller can keep them next to the block the tag
// occupies and file the tag later without hashing it again.
package bloom

import (
	"errors"
	"fmt"
)

// ErrBadConfig is wrapped by every configuration validation error in
// this package.
var ErrBadConfig = errors.New("bloom: bad configuration")

// Hashes is the number of hash functions of every filter in a bank,
// the paper's "three-hash bloom filter".
const Hashes = 3

// ProbeBits is the width of one position in a packed probe word;
// Hashes positions fill 63 of its 64 bits.
const ProbeBits = 21

// MaxBits is the largest filter size whose positions fit in ProbeBits.
const MaxBits = 1 << ProbeBits

// Slices is the number of filters a bank holds: one per bit of a
// position's byte.
const Slices = 8

const probeMask = 1<<ProbeBits - 1

// sliceOnes has bit 0 of every byte set: the bit column of filter 0.
const sliceOnes = 0x0101010101010101

// Bank is up to Slices same-geometry three-hash Bloom filters stored
// bit-sliced. The zero value is not usable; use NewBank.
type Bank struct {
	// words[p/8] holds positions p&^7 .. p|7, one byte each: bit s of
	// position p's byte is bit p of filter s.
	words []uint64
	nbits uint64
	// mask is nbits-1 when nbits is a power of two (the default
	// geometry), letting Probes reduce positions with an AND; zero
	// otherwise, and Probes falls back to %.
	mask uint64
}

// NewBank returns an empty bank of filters with nbits bits each. nbits
// is rounded up to a multiple of 64, as a word-array filter of the same
// size would be, and must not exceed MaxBits.
func NewBank(nbits int) (*Bank, error) {
	if nbits <= 0 {
		return nil, fmt.Errorf("%w: filter needs a positive number of bits, got %d", ErrBadConfig, nbits)
	}
	if nbits > MaxBits {
		return nil, fmt.Errorf("%w: %d bits per filter exceed the %d a %d-bit probe position addresses",
			ErrBadConfig, nbits, MaxBits, ProbeBits)
	}
	n := uint64(nbits+63) &^ 63
	b := &Bank{words: make([]uint64, n/8), nbits: n}
	if n&(n-1) == 0 {
		b.mask = n - 1
	}
	return b, nil
}

// mix64 is the splitmix64 finalizer; a cheap, well-distributed 64-bit
// mixer that stands in for the hardware hash trees of the real design.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Probes returns key's Hashes bit positions, packed ProbeBits apiece
// with position i in bits [i*ProbeBits, (i+1)*ProbeBits). Positions
// come from double hashing (Kirsch-Mitzenmacher): position i is
// h1 + i*h2 mod the filter size. They depend only on the geometry, so
// one probe word serves every filter of the bank.
func (b *Bank) Probes(key uint64) uint64 {
	h1 := mix64(key)
	h2 := mix64(key^0x9e3779b97f4a7c15) | 1 // odd, so positions cycle through the table
	p0, p1, p2 := h1, h1+h2, h1+2*h2
	if b.mask != 0 {
		p0, p1, p2 = p0&b.mask, p1&b.mask, p2&b.mask
	} else {
		p0, p1, p2 = p0%b.nbits, p1%b.nbits, p2%b.nbits
	}
	return p0 | p1<<ProbeBits | p2<<(2*ProbeBits)
}

// column returns position pos's byte in the low byte of the result:
// bit s is bit pos of filter s.
func (b *Bank) column(pos uint64) uint64 {
	return b.words[pos>>3] >> (pos & 7 * 8)
}

// AnyContains reports whether some filter of the bank has all the
// positions of probes set — whether the probed key may have been
// added to any filter. False positives are possible; false negatives
// are not.
func (b *Bank) AnyContains(probes uint64) bool {
	return b.column(probes&probeMask)&b.column(probes>>ProbeBits&probeMask)&b.column(probes>>(2*ProbeBits))&0xff != 0
}

// Add inserts the key probes were computed for into filter s
// (s < Slices).
func (b *Bank) Add(probes uint64, s int) {
	for i := 0; i < Hashes; i++ {
		pos := probes >> (i * ProbeBits) & probeMask
		b.words[pos>>3] |= 1 << (pos&7*8 + uint64(s))
	}
}

// ClearSlice flash-clears filter s, as the tracker does when a
// generation is discarded: one bit column of the bank.
func (b *Bank) ClearSlice(s int) {
	keep := ^(uint64(sliceOnes) << s)
	for i := range b.words {
		b.words[i] &= keep
	}
}

// Clear empties every filter of the bank.
func (b *Bank) Clear() { clear(b.words) }

// Bits returns the size of each filter in bits.
func (b *Bank) Bits() int { return int(b.nbits) }
