package stats

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
)

// AutocorrelogramNaive always takes the direct O(n·maxLag) path. It is
// the property-test oracle for the FFT path and the baseline of
// BenchmarkAutocorrelogramCrossover; detection code calls
// Workspace.Autocorrelogram, which selects the faster path.
func AutocorrelogramNaive(xs []float64, maxLag int) []float64 {
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
	out := make([]float64, maxLag+1)
	centered := make([]float64, n)
	den := centerInto(centered, xs)
	if den == 0 {
		return out
	}
	naiveAutocorr(centered, den, out)
	return out
}

// maxAbsDiff returns the largest absolute element difference.
func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// forceFFT runs the workspace FFT path regardless of the crossover so
// small fuzz inputs still exercise it.
func forceFFT(xs []float64, maxLag int) []float64 {
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
	var w Workspace
	out := make([]float64, maxLag+1)
	centered := make([]float64, n)
	den := centerInto(centered, xs)
	if den == 0 {
		return out
	}
	w.fftAutocorr(centered, den, out)
	return out
}

func TestFFTMatchesNaiveOnPeriodicSeries(t *testing.T) {
	// Period-24 square wave, deliberately non-power-of-two length.
	xs := make([]float64, 3000)
	for i := range xs {
		if i%24 < 12 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	want := AutocorrelogramNaive(xs, 300)
	got := forceFFT(xs, 300)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("fft vs naive diverge by %g", d)
	}
	// And the auto-selecting entry points agree with both.
	if d := maxAbsDiff(Autocorrelogram(xs, 300), want); d > 1e-9 {
		t.Fatalf("Autocorrelogram vs naive diverge by %g", d)
	}
}

func TestFFTConstantSeriesIsAllZeros(t *testing.T) {
	xs := make([]float64, 777)
	for i := range xs {
		xs[i] = 3.25
	}
	for _, acf := range [][]float64{forceFFT(xs, 100), Autocorrelogram(xs, 100)} {
		for p, v := range acf {
			if v != 0 {
				t.Fatalf("constant series acf[%d] = %v, want 0", p, v)
			}
		}
	}
}

func TestWorkspaceReuseAcrossSizes(t *testing.T) {
	// Shrinking, growing, and repeating sizes must all stay correct:
	// the scratch buffers and twiddle tables resize on the fly.
	w := NewWorkspace()
	r := NewRNG(5)
	for _, n := range []int{64, 4097, 129, 4097, 1 << 12, 33} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Sin(float64(i)/7) + r.NormFloat64()/8
		}
		maxLag := n / 3
		got := append([]float64(nil), w.Autocorrelogram(xs, maxLag)...)
		want := AutocorrelogramNaive(xs, maxLag)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len %d vs %d", n, len(got), len(want))
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("n=%d: workspace vs naive diverge by %g", n, d)
		}
	}
}

func TestWorkspaceZeroAllocsAfterWarmup(t *testing.T) {
	w := NewWorkspace()
	xs := make([]float64, 1<<14)
	for i := range xs {
		xs[i] = float64(i%37) - 18
	}
	w.Autocorrelogram(xs, 1024) // warm the buffers
	allocs := testing.AllocsPerRun(10, func() {
		w.Autocorrelogram(xs, 1024)
	})
	if allocs != 0 {
		t.Fatalf("workspace path allocated %v times per run, want 0", allocs)
	}
}

func TestUseFFTPrefersNaiveForTinyLagBudgets(t *testing.T) {
	// A long series with a handful of lags is exactly where the naive
	// sum stays cheaper than a million-point transform.
	if useFFT(1<<20, 2) {
		t.Error("useFFT chose the FFT for 2 lags over a 1M series")
	}
	if !useFFT(1<<16, 4096) {
		t.Error("useFFT refused the FFT at paper-scale train length")
	}
}

// FuzzAutocorrFFTMatchesNaive is the property test of the tentpole:
// the FFT and naive autocorrelograms agree within 1e-9 on arbitrary
// series — random lengths, non-power-of-two sizes, constant runs. The
// comparison is meaningful at any input scale because both paths
// normalize by the same directly-computed energy, making FFT roundoff
// relative to the coefficients, not the raw samples.
func FuzzAutocorrFFTMatchesNaive(f *testing.F) {
	encode := func(xs []float64) []byte {
		out := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return out
	}
	square := make([]float64, 100) // non-power-of-two on purpose
	constant := make([]float64, 65)
	ramp := make([]float64, 33)
	for i := range square {
		if i%10 < 5 {
			square[i] = 1
		}
	}
	for i := range constant {
		constant[i] = -2.5
	}
	for i := range ramp {
		ramp[i] = float64(i)
	}
	f.Add(encode(square), 30)
	f.Add(encode(constant), 64)
	f.Add(encode(ramp), 7)
	f.Add(encode([]float64{1}), 0)
	f.Add(encode(nil), 5)

	f.Fuzz(func(t *testing.T, data []byte, maxLag int) {
		xs := decodeSeries(data)
		if maxLag < 0 {
			maxLag = -maxLag
		}
		maxLag %= 1 << 13
		want := AutocorrelogramNaive(xs, maxLag)
		got := forceFFT(xs, maxLag)
		if len(got) != len(want) {
			t.Fatalf("length mismatch: fft %d, naive %d", len(got), len(want))
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("fft vs naive diverge by %g (%d samples, maxLag %d)",
				d, len(xs), maxLag)
		}
		auto := Autocorrelogram(xs, maxLag)
		if d := maxAbsDiff(auto, want); d > 1e-9 {
			t.Fatalf("auto-selected path diverges by %g", d)
		}
	})
}

// autocorrelogramDigest is the FNV-64a hash of the bits of every
// coefficient TestAutocorrelogramDigest computes. The -out CSVs print
// correlograms at full float64 precision, so any change in roundoff —
// a reordered sum, a fused multiply-add, a different twiddle — changes
// output bytes even when no verdict moves. Recompute this constant
// only together with a stated regeneration of those outputs.
const autocorrelogramDigest = 0x47b8cfd5a63ab384

// TestAutocorrelogramDigest pins the exact bits of
// Workspace.Autocorrelogram over a seeded grid of lengths, lag budgets
// and series shapes that lands on both sides of the FFT/naive
// crossover, with one workspace reused across every size.
func TestAutocorrelogramDigest(t *testing.T) {
	w := NewWorkspace()
	r := NewRNG(24)
	h := fnv.New64a()
	var buf [8]byte
	for _, n := range []int{1, 2, 3, 4, 7, 16, 31, 64, 100, 101, 128, 200, 257, 395, 400, 513, 1000, 2047, 4096, 5000} {
		for _, lag := range []int{0, 1, 5, n / 4, n / 2, n - 1, 1000} {
			for shape := 0; shape < 4; shape++ {
				xs := make([]float64, n)
				for i := range xs {
					switch shape {
					case 0: // white noise
						xs[i] = r.NormFloat64()
					case 1: // context-ID labels with a period-6 pattern
						xs[i] = float64((i/3)%2*3 + r.Intn(2))
					case 2: // noisy square wave
						xs[i] = float64(i%24/12) + float64(r.NormFloat64()/4)
					case 3: // cancelling ±1 spike pairs over -0, so the
						// mean is exactly 0 and the centered series keeps
						// its signed zeros
						xs[i] = math.Copysign(0, -1)
						if i%8 == 4 {
							xs[i] = -xs[i-4]
						} else if i%8 == 0 && i+4 < n {
							xs[i] = float64(2*r.Intn(2) - 1)
						}
					}
				}
				for _, v := range w.Autocorrelogram(xs, lag) {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	fft, naive := w.PathCounts()
	if fft == 0 || naive == 0 {
		t.Fatalf("grid hit %d FFT and %d naive calls; it must cover both paths", fft, naive)
	}
	if got := h.Sum64(); got != autocorrelogramDigest {
		t.Fatalf("autocorrelogram digest %#016x, want %#016x: the coefficients' roundoff changed", got, uint64(autocorrelogramDigest))
	}
}

// fftRadix2Ref is the textbook transform the fast kernels must match
// bit for bit: a per-size twiddle table e^{-2πik/L} read at stride
// L/length, the invert branch inside the butterfly, and the 1/L scale
// applied to every entry of both parts.
func fftRadix2Ref(re, im []float64, invert bool) {
	n := len(re)
	half := n / 2
	if half < 1 {
		half = 1
	}
	twre := make([]float64, half)
	twim := make([]float64, half)
	for k := 0; k < half; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		twre[k] = math.Cos(ang)
		twim[k] = math.Sin(ang)
	}
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
				vr := float64(re[j]*wr) - float64(im[j]*wi)
				vi := float64(re[j]*wi) + float64(im[j]*wr)
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

// naiveAutocorrRef is the per-lag §IV-D loop the blocked naiveAutocorr
// must match bit for bit.
func naiveAutocorrRef(centered []float64, den float64, out []float64) {
	n := len(centered)
	for p := range out {
		var num float64
		for i := 0; i+p < n; i++ {
			num += float64(centered[i] * centered[i+p])
		}
		out[p] = num / den
	}
}

// autocorrelogramRef is Workspace.Autocorrelogram built from the
// reference kernels: two full textbook transforms, or the per-lag sum,
// on the same side of the crossover. forceFFT takes the transform
// whatever the crossover says.
func autocorrelogramRef(xs []float64, maxLag int, forceFFT bool) []float64 {
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
	out := make([]float64, maxLag+1)
	centered := make([]float64, n)
	den := centerInto(centered, xs)
	if den == 0 {
		return out
	}
	if !forceFFT && !useFFT(n, maxLag) {
		naiveAutocorrRef(centered, den, out)
		return out
	}
	nfft := nextPow2(n + maxLag)
	re := make([]float64, nfft)
	im := make([]float64, nfft)
	copy(re, centered)
	fftRadix2Ref(re, im, false)
	for i := range re {
		re[i] = float64(re[i]*re[i]) + float64(im[i]*im[i])
		im[i] = 0
	}
	fftRadix2Ref(re, im, true)
	for p := range out {
		out[p] = re[p] / den
	}
	return out
}

// sameBits reports the first index where a and b differ in any bit
// (signed zeros included), or -1 when they are identical.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// oracleSeries fills a length-n series of the given shape: 0 white
// noise, 1 small integers, 2 a sine with signed zeros, 3 constant.
func oracleSeries(r *RNG, n, shape int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch shape {
		case 0:
			xs[i] = r.NormFloat64()
		case 1:
			xs[i] = float64(r.Intn(8))
		case 2:
			xs[i] = math.Sin(float64(i) / 5)
			if i%7 == 0 {
				xs[i] = math.Copysign(0, -1)
			}
		case 3:
			xs[i] = -1.75
		}
	}
	return xs
}

func TestFFTRadix2MatchesReferenceBits(t *testing.T) {
	r := NewRNG(17)
	for l := 2; l <= 1<<17; l <<= 1 {
		for _, invert := range []bool{false, true} {
			for _, complexIn := range []bool{false, true} {
				re := oracleSeries(r, l, 0)
				im := make([]float64, l)
				if complexIn {
					im = oracleSeries(r, l, 2)
				}
				wantRe := append([]float64(nil), re...)
				wantIm := append([]float64(nil), im...)
				fftRadix2Ref(wantRe, wantIm, invert)
				fftRadix2(re, im, invert)
				if invert {
					// fftRadix2 leaves the 1/L scale to its caller.
					inv := 1 / float64(l)
					for i := range re {
						re[i] *= inv
						im[i] *= inv
					}
				}
				if i := sameBits(re, wantRe); i >= 0 {
					t.Fatalf("L=%d invert=%v complex=%v: re[%d] = %v, reference %v", l, invert, complexIn, i, re[i], wantRe[i])
				}
				if i := sameBits(im, wantIm); i >= 0 {
					t.Fatalf("L=%d invert=%v complex=%v: im[%d] = %v, reference %v", l, invert, complexIn, i, im[i], wantIm[i])
				}
			}
		}
	}
}

// TestFoldedFirstStageMatchesReferenceBits checks the forward
// transform of a series padded past half its length, whose first
// stage loadFirstStage folds into the permutation, entry by entry
// against the textbook transform, signed zeros included.
func TestFoldedFirstStageMatchesReferenceBits(t *testing.T) {
	r := NewRNG(19)
	negZero := math.Copysign(0, -1)
	for l := 2; l <= 1<<12; l <<= 1 {
		for _, n := range []int{1, l / 4, l/2 - 1, l / 2} {
			if n < 1 {
				continue
			}
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = negZero
				if r.Intn(5) == 0 {
					xs[i] = r.NormFloat64()
				}
			}
			wantRe := make([]float64, l)
			wantIm := make([]float64, l)
			copy(wantRe, xs)
			fftRadix2Ref(wantRe, wantIm, false)
			re := make([]float64, l)
			im := make([]float64, l)
			tw := twiddlesFor(l)
			loadFirstStage(re, im, xs)
			fftStages(re, im, tw.re, tw.im, 2, l)
			if i := sameBits(re, wantRe); i >= 0 {
				t.Fatalf("L=%d n=%d: re[%d] = %v, reference %v", l, n, i, re[i], wantRe[i])
			}
			if i := sameBits(im, wantIm); i >= 0 {
				t.Fatalf("L=%d n=%d: im[%d] = %v, reference %v", l, n, i, im[i], wantIm[i])
			}
		}
	}
}

func TestAutocorrKernelsMatchReferenceBits(t *testing.T) {
	w := NewWorkspace()
	r := NewRNG(23)
	check := func(xs []float64, maxLag int) {
		t.Helper()
		for _, force := range []bool{false, true} {
			want := autocorrelogramRef(xs, maxLag, force)
			var got []float64
			if force {
				got = forceFFT(xs, maxLag)
			} else {
				got = w.Autocorrelogram(xs, maxLag)
			}
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d maxLag=%d forceFFT=%v: lag %d = %v, reference %v", len(xs), maxLag, force, i, got[i], want[i])
			}
		}
	}
	// Padding that fills the upper half (maxLag = n-1, the detectors'
	// case) and padding that does not (small lag budgets).
	for _, n := range []int{2, 3, 5, 8, 9, 63, 64, 65, 200, 395, 511, 512, 1000, 3000} {
		for _, lag := range []int{0, 1, 2, 3, 4, 7, n / 8, n / 2, n - 1} {
			for shape := 0; shape < 4; shape++ {
				check(oracleSeries(r, n, shape), lag)
			}
		}
	}
	// Random sizes and lag budgets, mostly on the naive side.
	for c := 0; c < 2000; c++ {
		n := 1 + r.Intn(300)
		check(oracleSeries(r, n, r.Intn(3)), r.Intn(n+2))
	}
}

func TestNaiveAutocorrMatchesPerLagLoop(t *testing.T) {
	r := NewRNG(29)
	for c := 0; c < 2000; c++ {
		n := 1 + r.Intn(400)
		xs := oracleSeries(r, n, r.Intn(3))
		centered := make([]float64, n)
		den := centerInto(centered, xs)
		if den == 0 {
			continue
		}
		lags := 1 + r.Intn(n)
		got := make([]float64, lags)
		want := make([]float64, lags)
		naiveAutocorr(centered, den, got)
		naiveAutocorrRef(centered, den, want)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("n=%d lags=%d: lag %d = %v, per-lag loop %v", n, lags, i, got[i], want[i])
		}
	}
}

// TestSharedTwiddlesConcurrentGrowth runs workspaces of different sizes
// in parallel from an empty shared table, so the race detector sees
// concurrent readers while the table grows, and every result must
// still match the reference bits.
func TestSharedTwiddlesConcurrentGrowth(t *testing.T) {
	sizes := []int{100, 395, 1500, 4000, 9000, 700}
	inputs := make([][]float64, len(sizes))
	wants := make([][]float64, len(sizes))
	r := NewRNG(31)
	for i, n := range sizes {
		inputs[i] = oracleSeries(r, n, i%3)
		wants[i] = autocorrelogramRef(inputs[i], n-1, true)
	}
	twiddles.Store(nil)
	var wg sync.WaitGroup
	errs := make(chan string, len(sizes))
	for i := range sizes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorkspace()
			for rep := 0; rep < 3; rep++ {
				for k := range sizes {
					j := (i + k) % len(sizes)
					got := make([]float64, len(wants[j]))
					centered := make([]float64, len(inputs[j]))
					den := centerInto(centered, inputs[j])
					w.fftAutocorr(centered, den, got)
					if idx := sameBits(got, wants[j]); idx >= 0 {
						errs <- fmt.Sprintf("worker %d, n=%d: lag %d = %v, reference %v", i, sizes[j], idx, got[idx], wants[j][idx])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
