package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramAddAndBins(t *testing.T) {
	h := NewHistogram(8)
	h.Add(0)
	h.Add(0)
	h.Add(3)
	h.AddN(5, 4)
	if h.Bin(0) != 2 || h.Bin(3) != 1 || h.Bin(5) != 4 {
		t.Errorf("bins wrong: %v", h.Bins())
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
	if h.NumBins() != 8 {
		t.Errorf("NumBins = %d", h.NumBins())
	}
	if h.Bin(-1) != 0 || h.Bin(100) != 0 {
		t.Error("out-of-range Bin should be 0")
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(4)
	h.Add(10) // clamps into bin 3
	h.AddN(99, 2)
	if h.Bin(3) != 3 {
		t.Errorf("clamped mass = %d, want 3", h.Bin(3))
	}
	if h.Clamped() != 3 {
		t.Errorf("Clamped = %d, want 3", h.Clamped())
	}
}

func TestHistogramDegradedInputs(t *testing.T) {
	// Zero bins clamp to one usable bin.
	h := NewHistogram(0)
	if h.NumBins() != 1 {
		t.Errorf("NewHistogram(0) has %d bins, want 1", h.NumBins())
	}
	h.Add(3)
	if h.Bin(0) != 1 || h.Clamped() != 1 {
		t.Errorf("1-bin histogram: bin0=%d clamped=%d, want 1,1", h.Bin(0), h.Clamped())
	}

	// Negative densities are tallied as invalid, never recorded as mass.
	h = NewHistogram(4)
	h.Add(-1)
	h.AddN(-7, 3)
	if h.Total() != 0 || h.Invalid() != 4 {
		t.Errorf("negative adds: total=%d invalid=%d, want 0,4", h.Total(), h.Invalid())
	}

	// Merging a deeper histogram folds its out-of-range mass into the
	// top bin as clamped mass; a shallower one merges in place.
	a := NewHistogram(4)
	deep := NewHistogram(6)
	deep.Add(5)
	deep.Add(1)
	a.Merge(deep)
	if a.Bin(3) != 1 || a.Bin(1) != 1 || a.Clamped() != 1 {
		t.Errorf("deep merge: bins=%v clamped=%d, want mass at 1 and 3, clamped 1", a.Bins(), a.Clamped())
	}
	shallow := NewHistogram(2)
	shallow.Add(1)
	a.Merge(shallow)
	if a.Bin(1) != 2 {
		t.Errorf("shallow merge: bin1=%d, want 2", a.Bin(1))
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(6)
	a.Add(1)
	a.Add(5)
	b := NewHistogram(6)
	b.Add(1)
	b.AddN(20, 2) // clamped
	a.Merge(b)
	if a.Bin(1) != 2 || a.Bin(5) != 3 || a.Clamped() != 2 {
		t.Errorf("merge wrong: %v clamped=%d", a.Bins(), a.Clamped())
	}
	a.Merge(nil) // no-op
	if a.Bin(1) != 2 || a.Bin(5) != 3 || a.Clamped() != 2 {
		t.Errorf("Merge(nil) changed the histogram: %v clamped=%d", a.Bins(), a.Clamped())
	}
}

func TestHistogramMeanDensity(t *testing.T) {
	h := NewHistogram(16)
	h.AddN(0, 10)
	h.AddN(10, 10)
	if got := h.MeanDensity(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("MeanDensity = %v, want 5", got)
	}
	if got := h.MeanDensityFrom(1); !almostEqual(got, 10, 1e-12) {
		t.Errorf("MeanDensityFrom(1) = %v, want 10", got)
	}
	if got := h.MeanDensityFrom(11); got != 0 {
		t.Errorf("MeanDensityFrom past data = %v, want 0", got)
	}
	if got := NewHistogram(4).MeanDensity(); got != 0 {
		t.Errorf("empty MeanDensity = %v", got)
	}
}

func TestHistogramNonZeroMaxAndReset(t *testing.T) {
	h := NewHistogram(8)
	if h.NonZeroMax() != -1 {
		t.Error("empty histogram NonZeroMax should be -1")
	}
	h.Add(2)
	h.Add(6)
	if h.NonZeroMax() != 6 {
		t.Errorf("NonZeroMax = %d, want 6", h.NonZeroMax())
	}
	h.Reset()
	if h.Total() != 0 || h.Clamped() != 0 || h.NonZeroMax() != -1 {
		t.Error("Reset did not clear state")
	}
}

func TestHistogramTotalFrom(t *testing.T) {
	h := NewHistogram(8)
	h.AddN(0, 5)
	h.AddN(3, 2)
	h.AddN(7, 1)
	if got := h.TotalFrom(1); got != 3 {
		t.Errorf("TotalFrom(1) = %d, want 3", got)
	}
	if got := h.TotalFrom(-5); got != 8 {
		t.Errorf("TotalFrom(-5) = %d, want 8", got)
	}
}

func TestHistogramTotalInvariant(t *testing.T) {
	// Property: Total always equals the number of Add calls.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		h := NewHistogram(1 + r.Intn(64))
		n := r.Intn(500)
		for i := 0; i < n; i++ {
			h.Add(r.Intn(100))
		}
		return h.Total() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(4)
	if got := h.String(); got != "Histogram{empty}" {
		t.Errorf("empty String = %q", got)
	}
	h.AddN(1, 3)
	h.Add(9)
	s := h.String()
	if !strings.Contains(s, "total=4") || !strings.Contains(s, "clamped=1") {
		t.Errorf("String missing totals: %q", s)
	}
}

func TestHistogramFloats(t *testing.T) {
	h := NewHistogram(3)
	h.Add(0)
	h.AddN(2, 5)
	f := h.Floats()
	if len(f) != 3 || f[0] != 1 || f[1] != 0 || f[2] != 5 {
		t.Errorf("Floats = %v", f)
	}
}
