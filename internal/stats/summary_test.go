package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMeanInts(t *testing.T) {
	if got := MeanInts([]int{1, 2, 3}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("MeanInts = %v, want 2", got)
	}
	if got := MeanInts(nil); got != 0 {
		t.Errorf("MeanInts(nil) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -2, 7, 0})
	if min != -2 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-2, 7)", min, max)
	}
}

func TestMinMaxEmptyIsZero(t *testing.T) {
	if min, max := MinMax(nil); min != 0 || max != 0 {
		t.Fatalf("MinMax(nil) = (%v, %v), want (0, 0)", min, max)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uint64() == c.Uint64() && i > 0 {
			continue
		}
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of range [0,1)", v)
		}
	}
}

func TestRNGBitsAndUint64Bits(t *testing.T) {
	bits := NewRNG(3).Bits(64)
	if len(bits) != 64 {
		t.Fatalf("Bits(64) len = %d", len(bits))
	}
	for _, b := range bits {
		if b != 0 && b != 1 {
			t.Fatalf("bit value %d", b)
		}
	}
	got := Uint64Bits(0x8000000000000001)
	if got[0] != 1 || got[63] != 1 {
		t.Errorf("Uint64Bits MSB/LSB wrong: %v %v", got[0], got[63])
	}
	for i := 1; i < 63; i++ {
		if got[i] != 0 {
			t.Errorf("Uint64Bits bit %d = %d, want 0", i, got[i])
		}
	}
}

func TestRNGPerm(t *testing.T) {
	p := NewRNG(5).Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 20 {
		t.Fatalf("permutation missing elements: %v", p)
	}
}

// NormFloat64 returns a standard normally distributed value using the
// polar Box-Muller transform. Only tests draw normal noise, so it
// lives here.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %v, want ~1", variance)
	}
}
