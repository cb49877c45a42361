package stats

import (
	"encoding/binary"
	"math"
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
