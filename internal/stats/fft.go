package stats

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
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

// stageTwiddles is the process-wide twiddle table every transform
// reads. Entries [h, 2h) are the half-length-h stage's factors
// e^{-2πik/2h}, k in [0, h), stored contiguously so a stage walks them
// with unit stride; im holds the forward transform's imaginary parts
// and imInv their negation, the inverse's conjugated factors. Index 0
// is unused, so a table of length L serves every transform up to L.
//
// The factors do not depend on the transform size: the size-L stage
// reading entry k·stride of a per-size table e^{-2πi(k·stride)/L}
// computes (-2π·k·stride)/L, and since stride and L/stride = 2h are
// powers of two that is (-2π·k)/2h rounded the same way, bit for bit.
// One table therefore reproduces the per-size tables exactly.
type stageTwiddles struct {
	re, im, imInv []float64
}

// twiddles publishes the current table; it only ever grows, under
// twiddlesMu, and a published table is never written again, so readers
// load it without locking.
var (
	twiddles   atomic.Pointer[stageTwiddles]
	twiddlesMu sync.Mutex
)

// twiddlesFor returns a table covering transforms up to length l (a
// power of two), growing the shared one when it is shorter.
func twiddlesFor(l int) *stageTwiddles {
	if t := twiddles.Load(); t != nil && len(t.re) >= l {
		return t
	}
	twiddlesMu.Lock()
	defer twiddlesMu.Unlock()
	old := twiddles.Load()
	if old != nil && len(old.re) >= l {
		return old
	}
	t := &stageTwiddles{
		re:    make([]float64, l),
		im:    make([]float64, l),
		imInv: make([]float64, l),
	}
	h := 1
	if old != nil {
		copy(t.re, old.re)
		copy(t.im, old.im)
		copy(t.imInv, old.imInv)
		h = len(old.re)
	}
	for ; h < l; h <<= 1 {
		for k := 0; k < h; k++ {
			// Each entry straight from cos/sin: no recurrence, so the
			// table's accuracy does not degrade with transform size.
			ang := -2 * math.Pi * float64(k) / float64(2*h)
			t.re[h+k] = math.Cos(ang)
			t.im[h+k] = math.Sin(ang)
			t.imInv[h+k] = -t.im[h+k]
		}
	}
	twiddles.Store(t)
	return t
}

// fftRadix2 runs an in-place radix-2 decimation-in-time FFT over the
// complex series (re, im), whose length must be a power of two; invert
// selects the inverse's conjugated twiddles. The transform is
// unscaled: an inverse caller multiplies the entries it reads by 1/L.
func fftRadix2(re, im []float64, invert bool) {
	tw := twiddlesFor(len(re))
	wim := tw.im
	if invert {
		wim = tw.imInv
	}
	bitReverse(re, im)
	fftStages(re, im, tw.re, wim, 1, len(re))
}

// bitReverse applies the FFT's bit-reversal permutation to (re, im).
func bitReverse(re, im []float64) {
	shift := bits.UintSize - bits.Len(uint(len(re))) + 1
	im = im[:len(re)]
	for i := range re {
		j := int(bits.Reverse(uint(i)) >> shift)
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// fftStages runs the butterfly stages of half-length h = first,
// 2·first, … below last over bit-reversed (re, im), reading stage h's
// twiddles from entries [h, 2h) of (wre, wim). Every butterfly is the
// textbook one, operation for operation: v = b·w, then (a+v, a−v).
func fftStages(re, im, wre, wim []float64, first, last int) {
	n := len(re)
	h := first
	if h == 1 && h < last {
		// One butterfly per block: a flat walk with the factor hoisted.
		wr, wi := wre[1], wim[1]
		for r, m := re, im; len(r) >= 2 && len(m) >= 2; r, m = r[2:], m[2:] {
			xr, xi := r[1], m[1]
			vr := float64(xr*wr) - float64(xi*wi)
			vi := float64(xr*wi) + float64(xi*wr)
			ar, ai := r[0], m[0]
			r[1], m[1] = ar-vr, ai-vi
			r[0], m[0] = ar+vr, ai+vi
		}
		h = 2
	}
	if h == 2 && h < last {
		// Two butterflies per block, likewise flattened.
		wr0, wi0, wr1, wi1 := wre[2], wim[2], wre[3], wim[3]
		for r, m := re, im; len(r) >= 4 && len(m) >= 4; r, m = r[4:], m[4:] {
			xr, xi := r[2], m[2]
			vr := float64(xr*wr0) - float64(xi*wi0)
			vi := float64(xr*wi0) + float64(xi*wr0)
			ar, ai := r[0], m[0]
			r[2], m[2] = ar-vr, ai-vi
			r[0], m[0] = ar+vr, ai+vi
			xr, xi = r[3], m[3]
			vr = float64(xr*wr1) - float64(xi*wi1)
			vi = float64(xr*wi1) + float64(xi*wr1)
			ar, ai = r[1], m[1]
			r[3], m[3] = ar-vr, ai-vi
			r[1], m[1] = ar+vr, ai+vi
		}
		h = 4
	}
	for ; h < last; h <<= 1 {
		wr, wi := wre[h:2*h], wim[h:2*h]
		for start := 0; start+2*h <= n; start += 2 * h {
			ar, br := re[start:start+h], re[start+h:start+2*h]
			ai, bi := im[start:start+h], im[start+h:start+2*h]
			br, ai, bi = br[:len(ar)], ai[:len(ar)], bi[:len(ar)]
			wr, wi := wr[:len(ar)], wi[:len(ar)]
			for k := range ar {
				xr, xi := br[k], bi[k]
				vr := float64(xr*wr[k]) - float64(xi*wi[k])
				vi := float64(xr*wi[k]) + float64(xi*wr[k])
				ur, ui := ar[k], ai[k]
				br[k], bi[k] = ur-vr, ui-vi
				ar[k], ai[k] = ur+vr, ui+vi
			}
		}
	}
}

// Workspace holds the scratch buffers of the autocorrelogram fast
// path: the FFT's complex series, the mean-centered input copy, and
// the output correlogram; the twiddle factors live in the shared
// stageTwiddles table. A caller that analyzes many trains (the
// detector daemon, the experiment sweeps) holds one Workspace and
// reuses it; after the first call at a given size,
// Workspace.Autocorrelogram performs no allocations at all.
//
// The zero value is ready to use. A Workspace is not safe for
// concurrent use; give each goroutine its own.
type Workspace struct {
	re, im   []float64 // FFT scratch, length = padded transform size
	centered []float64 // mean-centered copy of the input
	cden     float64   // energy Σ(x-mean)² of the centered copy
	acf      []float64 // output buffer, returned to the caller
	segAcc   []float64 // Bartlett accumulation buffer (segmented path)

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
		num += float64(c[i] * c[i+p])
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
//
// The two transforms skip only work whose result is known or unread,
// never an operation that feeds a read lag, so the output is bit-for-
// bit that of two full textbook transforms (DESIGN.md §10):
//   - when the padding fills the upper half (n <= L/2, every call with
//     maxLag = n-1), the first forward stage pairs each sample x with
//     a padded +0 under the factor (1, -0), so it yields x - (+0) = x
//     and x + (+0); it is folded into the bit-reversal pass;
//   - the inverse's last stage computes only the real "+" outputs at
//     lags 0..maxLag (maxLag < L/2 always), and only those are scaled.
func (w *Workspace) fftAutocorr(centered []float64, den float64, out []float64) {
	n := len(centered)
	maxLag := len(out) - 1
	nfft := nextPow2(n + maxLag)
	tw := twiddlesFor(nfft)
	w.re = grow(w.re, nfft)
	w.im = grow(w.im, nfft)
	re, im := w.re, w.im
	if 2*n <= nfft {
		loadFirstStage(re, im, centered)
		fftStages(re, im, tw.re, tw.im, 2, nfft)
	} else {
		copy(re, centered)
		clear(re[n:])
		clear(im)
		fftRadix2(re, im, false)
	}
	powerBitReversed(re, im)
	half := nfft / 2
	fftStages(re, im, tw.re, tw.imInv, 1, half)
	ar, br, bi := re[:maxLag+1], re[half:half+maxLag+1], im[half:half+maxLag+1]
	wr, wi := tw.re[half:half+maxLag+1], tw.imInv[half:half+maxLag+1]
	inv := 1 / float64(nfft)
	for p := range out {
		vr := float64(br[p]*wr[p]) - float64(bi[p]*wi[p])
		out[p] = (ar[p] + vr) * inv / den
	}
}

// powerBitReversed replaces the transform (re, im) by its power
// spectrum |X|² in bit-reversed order, the inverse transform's input,
// with every imaginary part zero: one pass instead of a squaring pass
// and a permutation.
func powerBitReversed(re, im []float64) {
	shift := bits.UintSize - bits.Len(uint(len(re))) + 1
	im = im[:len(re)]
	for i := range re {
		j := int(bits.Reverse(uint(i)) >> shift)
		if i > j {
			continue // stored with its partner
		}
		pi := float64(re[i]*re[i]) + float64(im[i]*im[i])
		pj := float64(re[j]*re[j]) + float64(im[j]*im[j])
		re[i], re[j] = pj, pi
		im[i], im[j] = 0, 0
	}
}

// loadFirstStage writes the output of the forward transform's first
// stage for a series zero-padded past half the transform length:
// bit-reversed order puts every padded +0 at an odd index, so each
// pair is a sample x and a zero, and the butterfly with factor (1, -0)
// leaves (x + (+0), x) and zero imaginary parts — the same bits the
// full butterfly computes, including for x = -0.
func loadFirstStage(re, im, xs []float64) {
	shift := bits.UintSize - bits.Len(uint(len(re)/2)) + 1
	for q, r, m := uint(0), re, im; len(r) >= 2 && len(m) >= 2; q, r, m = q+1, r[2:], m[2:] {
		var x float64
		if src := int(bits.Reverse(q) >> shift); src < len(xs) {
			x = xs[src]
		}
		r[0], r[1] = x+0, x
		m[0], m[1] = 0, 0
	}
}

// naiveAutocorr is the direct §IV-D sum over a centered series, shared
// by the small-input path and the FFT oracle tests. Lags go four at a
// time, sharing each c[i] load across four accumulators; each lag still
// sums its own products in ascending i, so every coefficient is the
// per-lag loop's to the bit.
func naiveAutocorr(c []float64, den float64, out []float64) {
	n := len(c)
	p := 0
	for ; p+4 <= len(out); p += 4 {
		// Lags p..p+3 share i in [0, m); len(out) <= n keeps m >= 1.
		m := n - p - 3
		a := c[:m]
		b0, b1, b2, b3 := c[p:p+m], c[p+1:p+1+m], c[p+2:p+2+m], c[p+3:p+3+m]
		var s0, s1, s2, s3 float64
		for i, ci := range a {
			s0 += float64(ci * b0[i])
			s1 += float64(ci * b1[i])
			s2 += float64(ci * b2[i])
			s3 += float64(ci * b3[i])
		}
		// The shorter lags' last products, still in ascending i.
		t := c[m : m+3]
		s0 += float64(t[0] * c[m+p])
		s0 += float64(t[1] * c[m+p+1])
		s0 += float64(t[2] * c[m+p+2])
		s1 += float64(t[0] * c[m+p+1])
		s1 += float64(t[1] * c[m+p+2])
		s2 += float64(t[0] * c[m+p+2])
		out[p] = s0 / den
		out[p+1] = s1 / den
		out[p+2] = s2 / den
		out[p+3] = s3 / den
	}
	for ; p < len(out); p++ {
		var num float64
		for i := 0; i+p < n; i++ {
			num += float64(c[i] * c[i+p])
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
		den += float64(d * d)
	}
	return den
}
