package stats

import (
	"testing"
	"testing/quick"
)

// Autocorrelation implements the autocorrelation coefficient of §IV-D:
//
//	r_p = Σ_{i=1..n-p} (X_i - X̄)(X_{i+p} - X̄)  /  Σ_{i=1..n} (X_i - X̄)²
//
// for a single lag p. It returns 0 when the series is constant (zero
// denominator) or when p is out of the usable range [0, len(xs)-1].
// Numerator and denominator accumulate in one fused walk after the
// mean, matching the centered pass Autocorrelogram's paths share. It
// is the single-lag oracle of Workspace.CenteredAutocorrelation.
func Autocorrelation(xs []float64, p int) float64 {
	n := len(xs)
	if p < 0 || p >= n {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i, x := range xs {
		d := x - m
		den += float64(d * d)
		if i+p < n {
			num += float64(d * (xs[i+p] - m))
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Autocorrelogram returns the autocorrelation coefficients for lags
// 0..maxLag inclusive (out[0] is always 1 for a non-constant series).
// This is the chart the oscillatory-pattern detector inspects for
// periodic peaks. maxLag is clamped to len(xs)-1.
//
// Above the measured size crossover the Wiener–Khinchin FFT path
// (O(n log n)) is selected automatically; below it the direct §IV-D
// sum runs (see fft.go and DESIGN.md §10). It is Workspace.Autocorrelogram
// on a fresh workspace: the allocating form the tests call.
func Autocorrelogram(xs []float64, maxLag int) []float64 {
	var w Workspace
	// The workspace is function-local, so handing its output buffer to
	// the caller is safe: nothing else will overwrite it.
	return w.Autocorrelogram(xs, maxLag)
}

func TestAutocorrelationLag0(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4, 6}
	if got := Autocorrelation(xs, 0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("r_0 = %v, want 1", got)
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	xs := []float64{4, 4, 4, 4}
	for p := 0; p < 4; p++ {
		if got := Autocorrelation(xs, p); got != 0 {
			t.Errorf("constant series r_%d = %v, want 0", p, got)
		}
	}
}

func TestAutocorrelationOutOfRange(t *testing.T) {
	xs := []float64{1, 2, 3}
	if Autocorrelation(xs, -1) != 0 || Autocorrelation(xs, 3) != 0 {
		t.Error("out-of-range lags should return 0")
	}
}

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// Alternating 0/1 signal: strong positive correlation at even lags,
	// strong negative at odd lags.
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	if r2 := Autocorrelation(xs, 2); r2 < 0.9 {
		t.Errorf("r_2 of alternating series = %v, want > 0.9", r2)
	}
	if r1 := Autocorrelation(xs, 1); r1 > -0.9 {
		t.Errorf("r_1 of alternating series = %v, want < -0.9", r1)
	}
}

func TestAutocorrelogramPeriodDetection(t *testing.T) {
	// Period-16 square wave: the autocorrelogram must peak at lag 16.
	xs := make([]float64, 512)
	for i := range xs {
		if i%16 < 8 {
			xs[i] = 1
		}
	}
	acf := Autocorrelogram(xs, 64)
	if len(acf) != 65 {
		t.Fatalf("acf length %d, want 65", len(acf))
	}
	if !almostEqual(acf[0], 1, 1e-12) {
		t.Errorf("acf[0] = %v, want 1", acf[0])
	}
	peaks := Peaks(acf, 0.5)
	found := false
	for _, p := range peaks {
		if p.Lag == 16 {
			found = true
		}
	}
	if !found {
		t.Errorf("no peak at lag 16; peaks = %v", peaks)
	}
}

func TestAutocorrelogramEdgeCases(t *testing.T) {
	if Autocorrelogram(nil, 10) != nil {
		t.Error("empty series should give nil")
	}
	acf := Autocorrelogram([]float64{1, 2}, 100)
	if len(acf) != 2 {
		t.Errorf("maxLag should clamp to n-1, got len %d", len(acf))
	}
	acf = Autocorrelogram([]float64{5, 5, 5}, -2)
	if len(acf) != 1 || acf[0] != 0 {
		t.Errorf("constant series / negative lag handling wrong: %v", acf)
	}
}

func TestAutocorrelogramMatchesSingleLag(t *testing.T) {
	r := NewRNG(21)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Float64()
	}
	acf := Autocorrelogram(xs, 50)
	for p := 0; p <= 50; p++ {
		if want := Autocorrelation(xs, p); !almostEqual(acf[p], want, 1e-9) {
			t.Fatalf("acf[%d] = %v, single-lag = %v", p, acf[p], want)
		}
	}
}

func TestAutocorrelationBounded(t *testing.T) {
	// Property: |r_p| <= 1 for random series and random lags.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 16 + r.Intn(128)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		p := r.Intn(n)
		v := Autocorrelation(xs, p)
		return IsFinite(v) && v >= -1.0000001 && v <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPeaksPlateauAndThreshold(t *testing.T) {
	acf := []float64{1, 0.2, 0.8, 0.8, 0.1, 0.9, 0.05}
	peaks := Peaks(acf, 0.7)
	if len(peaks) != 2 {
		t.Fatalf("peaks = %v, want 2 entries", peaks)
	}
	if peaks[0].Lag != 2 || peaks[1].Lag != 5 {
		t.Errorf("peak lags = %d,%d want 2,5", peaks[0].Lag, peaks[1].Lag)
	}
	if got := Peaks(acf, 0.95); len(got) != 0 {
		t.Errorf("threshold 0.95 should remove all peaks, got %v", got)
	}
}

func TestPeaksEndOfSeries(t *testing.T) {
	// A rising final point counts as a peak (series end treated as
	// falling edge).
	acf := []float64{1, 0.1, 0.6}
	peaks := Peaks(acf, 0.5)
	if len(peaks) != 1 || peaks[0].Lag != 2 {
		t.Errorf("end-of-series peak not detected: %v", peaks)
	}
}

func TestWhiteNoiseHasNoStrongPeaks(t *testing.T) {
	r := NewRNG(99)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	acf := Autocorrelogram(xs, 512)
	for p := 1; p < len(acf); p++ {
		if abs(acf[p]) > 0.2 {
			t.Fatalf("white noise acf[%d] = %v, |r| should stay small", p, acf[p])
		}
	}
}
