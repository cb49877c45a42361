// Package stats provides the small statistical toolkit CC-Hunter's
// detection algorithms are built on: summary statistics, histograms,
// reference distributions (Poisson, normal), autocorrelation, a seeded
// deterministic random number generator, and a k-means clusterer used by
// the recurrent-burst pattern detector.
//
// Everything in this package is deterministic: no global state, no
// wall-clock time, no math/rand default source. Experiments that need
// randomness thread an explicit *stats.RNG through.
package stats

// RNG is a small deterministic pseudo-random number generator
// (xorshift64* with a splitmix64-seeded state). It is intentionally not
// cryptographic: its job is reproducible workloads and messages, so that
// every experiment in the repository regenerates bit-identical results.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded from seed. Two RNGs built from the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := SeededRNG(seed)
	return &r
}

// SeededRNG returns the generator for seed by value, for hot callers
// that want the state on their own stack instead of a fresh heap
// object per analysis. SeededRNG(s) and *NewRNG(s) are the same
// generator.
func SeededRNG(seed uint64) RNG {
	// splitmix64 step so that small seeds (0, 1, 2...) still produce
	// well-mixed initial states.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x853c49e6748fea9b
	}
	return RNG{state: z}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). A non-positive n returns
// 0 — the degenerate range has a single representable value, and the
// detection pipeline's supervision layer prefers a deterministic
// degraded draw over a crashed detector job.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1). The explicit
// conversion rounds the scaled value, so an inlined caller's `a +
// rng.Float64()` is never fused into a multiply-add.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Bit returns a pseudo-random bit as 0 or 1.
func (r *RNG) Bit() int {
	return int(r.Uint64() >> 63)
}

// Bits returns n pseudo-random bits, most significant first, as a slice
// of 0/1 values. It is used to generate the random message patterns of
// the paper's Figure 12 experiment (256 random 64-bit messages).
func (r *RNG) Bits(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = r.Bit()
	}
	return out
}

// Uint64Bits packs the low 64 bits of a message into a []int of 0/1
// values, most significant bit first. It is handy for encoding a known
// 64-bit value (e.g. the paper's "randomly-chosen credit card number").
func Uint64Bits(v uint64) []int {
	out := make([]int, 64)
	for i := 0; i < 64; i++ {
		out[i] = int(v>>(63-i)) & 1
	}
	return out
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normally distributed value using the
// polar Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		return u * sqrt(-2*ln(s)/s)
	}
}
