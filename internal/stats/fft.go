package stats

import (
	"math"
	"math/bits"
)

// fft.go implements the fast autocorrelogram path: a radix-2 iterative
// FFT plus the Wiener–Khinchin theorem. The naive §IV-D sum costs
// O(n·maxLag); computing the power spectrum of the zero-padded,
// mean-centered series and transforming back yields every lag at once
// in O(L log L), L being the padded transform length. The detectors
// autocorrelate event trains of 10^4–10^6 entries at lags up to
// thousands, which is where the O(n·maxLag) sum dominated ccrepro's
// wall-clock; see DESIGN.md §10 for the measured crossover.

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// fftCostFactor calibrates the FFT-path cost estimate against the
// naive path's n·(maxLag+1) multiply-adds: one butterfly (two complex
// mul/adds plus table loads) costs about this many naive inner-loop
// iterations. Measured with BenchmarkAutocorrelogramCrossover: across
// n = 1k..64k the break-even ratio n·maxLag / (L·log₂L) lands between
// 4.5 and 6.2 (see DESIGN.md §10); the exact value only moves the
// crossover by a few percent of runtime, both paths being correct.
const fftCostFactor = 5

// useFFT reports whether the FFT path is predicted to be cheaper than
// the naive sum for a series of length n at lags 0..maxLag.
func useFFT(n, maxLag int) bool {
	l := nextPow2(n + maxLag)
	logL := bits.Len(uint(l)) - 1
	return n*(maxLag+1) > fftCostFactor*l*logL
}

// fftRadix2 runs an in-place radix-2 FFT over the complex series
// (re, im), whose length must be a power of two. The twiddle table
// (twre, twim) holds e^{-2πik/L} for k in [0, L/2); invert selects the
// inverse transform (conjugated twiddles plus the 1/L scale).
func fftRadix2(re, im, twre, twim []float64, invert bool) {
	n := len(re)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		stride := n / length
		for start := 0; start < n; start += length {
			for k := 0; k < half; k++ {
				wr := twre[k*stride]
				wi := twim[k*stride]
				if invert {
					wi = -wi
				}
				i, j := start+k, start+k+half
				vr := re[j]*wr - im[j]*wi
				vi := re[j]*wi + im[j]*wr
				re[j], im[j] = re[i]-vr, im[i]-vi
				re[i], im[i] = re[i]+vr, im[i]+vi
			}
		}
	}
	if invert {
		inv := 1 / float64(n)
		for i := range re {
			re[i] *= inv
			im[i] *= inv
		}
	}
}

// Workspace holds the scratch buffers of the autocorrelogram fast
// path: the FFT's complex series and twiddle table, the mean-centered
// input copy, and the output correlogram. A caller that analyzes many
// trains (the detector daemon, the experiment sweeps) holds one
// Workspace and reuses it; after the first call at a given size,
// Workspace.Autocorrelogram performs no allocations at all.
//
// The zero value is ready to use. A Workspace is not safe for
// concurrent use; give each goroutine its own.
type Workspace struct {
	re, im     []float64 // FFT scratch, length = padded transform size
	twre, twim []float64 // twiddle table e^{-2πik/L}, length L/2
	twN        int       // transform size the table is built for
	centered   []float64 // mean-centered copy of the input
	cden       float64   // energy Σ(x-mean)² of the centered copy
	acf        []float64 // output buffer, returned to the caller
	segAcc     []float64 // Bartlett accumulation buffer (segmented path)

	// Path-selection tallies, read via PathCounts. Plain (non-atomic)
	// because a Workspace is single-goroutine by contract.
	fftCalls, naiveCalls uint64
}

// PathCounts reports how many Autocorrelogram calls took the FFT path
// versus the naive sum — the observability layer publishes these so a
// run can show which side of the crossover its trains landed on.
func (w *Workspace) PathCounts() (fft, naive uint64) {
	return w.fftCalls, w.naiveCalls
}

// ResetCounts zeroes the path-selection tallies. A pooled workspace is
// reset when it is handed to a new owner, so its published counts
// cover exactly that owner's calls — the same numbers a freshly
// allocated workspace would report. Scratch buffers keep their
// capacity; they carry no information across calls.
func (w *Workspace) ResetCounts() {
	w.fftCalls, w.naiveCalls = 0, 0
}

// NewWorkspace returns an empty workspace. Equivalent to new(Workspace);
// provided for call-site readability.
func NewWorkspace() *Workspace { return new(Workspace) }

// grow returns buf resized to n, reusing its capacity when possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ensureFFT sizes the complex scratch and twiddle table for transform
// length nfft (a power of two).
func (w *Workspace) ensureFFT(nfft int) {
	w.re = grow(w.re, nfft)
	w.im = grow(w.im, nfft)
	if w.twN != nfft {
		half := nfft / 2
		if half < 1 {
			half = 1
		}
		w.twre = grow(w.twre, half)
		w.twim = grow(w.twim, half)
		for k := 0; k < half; k++ {
			// Each entry straight from cos/sin: no recurrence, so the
			// table's accuracy does not degrade with transform size.
			ang := -2 * math.Pi * float64(k) / float64(nfft)
			w.twre[k] = math.Cos(ang)
			w.twim[k] = math.Sin(ang)
		}
		w.twN = nfft
	}
}

// Autocorrelogram computes the autocorrelation coefficients for lags
// 0..maxLag inclusive (out[0] is always 1 for a non-constant series;
// maxLag is clamped to len(xs)-1), selecting the Wiener–Khinchin FFT
// path above the measured crossover and the direct §IV-D sum below it,
// and reusing the workspace's buffers throughout.
//
// The returned slice is owned by the workspace and is overwritten by
// the next call; callers that keep a correlogram must copy it.
func (w *Workspace) Autocorrelogram(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		maxLag = 0
	}
	w.acf = grow(w.acf, maxLag+1)
	out := w.acf
	w.centered = grow(w.centered, n)
	den := centerInto(w.centered, xs)
	w.cden = den
	if den == 0 {
		for i := range out {
			out[i] = 0 // constant series has no autocorrelation
		}
		return out
	}
	if useFFT(n, maxLag) {
		w.fftCalls++
		w.fftAutocorr(w.centered, den, out)
	} else {
		w.naiveCalls++
		naiveAutocorr(w.centered, den, out)
	}
	return out
}

// SegmentedAutocorrelogram estimates the autocorrelation coefficients
// for lags 0..maxLag by Bartlett averaging: the series is cut into
// consecutive fixed-size segments, each segment's autocorrelogram is
// computed independently (through the same FFT/naive crossover and the
// same scratch buffers), and the per-lag coefficients are averaged.
// The streaming daemon uses this for mid-window estimates: each chunk
// costs O(segLen log segLen) and the estimate refines as chunks
// arrive, without ever holding (or transforming) the whole series. On
// a stationary series the average converges to the full correlogram;
// it is an estimate, not the exact §IV-D statistic, which the window
// close recomputes exactly.
//
// A trailing partial segment shorter than segLen is dropped; maxLag is
// clamped below segLen. When the series is shorter than one segment
// (or segLen is zero) the call falls through to the exact
// Autocorrelogram. The returned slice is owned by the workspace and is
// overwritten by the next segmented call.
func (w *Workspace) SegmentedAutocorrelogram(xs []float64, segLen, maxLag int) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if segLen <= 0 || segLen >= n {
		return w.Autocorrelogram(xs, maxLag)
	}
	if maxLag >= segLen {
		maxLag = segLen - 1
	}
	if maxLag < 0 {
		maxLag = 0
	}
	w.segAcc = grow(w.segAcc, maxLag+1)
	acc := w.segAcc
	for i := range acc {
		acc[i] = 0
	}
	segments := 0
	for start := 0; start+segLen <= n; start += segLen {
		acf := w.Autocorrelogram(xs[start:start+segLen], maxLag)
		for p, v := range acf {
			acc[p] += v
		}
		segments++
	}
	inv := 1 / float64(segments)
	for p := range acc {
		acc[p] *= inv
	}
	return acc
}

// CenteredAutocorrelation returns r_p of the series most recently
// passed to Autocorrelogram, reusing its mean-centered copy and
// energy. The value is bit-identical to the §IV-D coefficient r_p
// computed from scratch (the tests' Autocorrelation(series, p)):
// the centered entries are the very (x−mean) differences that call
// would recompute, and the numerator accumulates over ascending i in
// the same order, so every IEEE operation matches. The oscillation
// detector uses this for harmonic probes beyond the correlogram's
// maxLag, which previously re-derived the mean and the energy for
// every probed lag (≈40% of the cache-channel figure's profile).
func (w *Workspace) CenteredAutocorrelation(p int) float64 {
	n := len(w.centered)
	if p < 0 || p >= n || w.cden == 0 {
		return 0
	}
	c := w.centered
	var num float64
	for i := 0; i+p < n; i++ {
		num += c[i] * c[i+p]
	}
	return num / w.cden
}

// fftAutocorr fills out[p] = r_p for the centered series via the
// Wiener–Khinchin theorem. Zero-padding to L >= n+maxLag keeps the
// circular correlation's wraparound terms out of the lags we read: the
// alias of lag p lands at lag L-p, which stays above maxLag for every
// p <= maxLag. Both paths normalize by the directly computed energy
// den = Σd² (not the FFT's own c[0]), so they agree to roundoff and
// degrade identically on near-constant series.
func (w *Workspace) fftAutocorr(centered []float64, den float64, out []float64) {
	n := len(centered)
	maxLag := len(out) - 1
	nfft := nextPow2(n + maxLag)
	w.ensureFFT(nfft)
	re, im := w.re, w.im
	copy(re, centered)
	for i := n; i < nfft; i++ {
		re[i] = 0
	}
	for i := range im {
		im[i] = 0
	}
	fftRadix2(re, im, w.twre, w.twim, false)
	for i := 0; i < nfft; i++ {
		re[i] = re[i]*re[i] + im[i]*im[i] // power spectrum
		im[i] = 0
	}
	fftRadix2(re, im, w.twre, w.twim, true)
	for p := 0; p <= maxLag; p++ {
		out[p] = re[p] / den
	}
}

// naiveAutocorr is the direct §IV-D sum over a centered series, shared
// by the small-input path and the FFT oracle tests.
func naiveAutocorr(centered []float64, den float64, out []float64) {
	n := len(centered)
	for p := range out {
		var num float64
		for i := 0; i+p < n; i++ {
			num += centered[i] * centered[i+p]
		}
		out[p] = num / den
	}
}

// centerInto writes xs - mean(xs) into dst (which must have the same
// length) and returns the energy Σ(x-mean)² — the §IV-D denominator —
// in the same pass.
func centerInto(dst, xs []float64) float64 {
	m := Mean(xs)
	var den float64
	for i, x := range xs {
		d := x - m
		dst[i] = d
		den += d * d
	}
	return den
}
