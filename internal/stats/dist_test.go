package stats

import "testing"

func TestPoissonPMFBasics(t *testing.T) {
	if got := PoissonPMF(0, 0); got != 1 {
		t.Errorf("P(0;0) = %v, want 1", got)
	}
	if got := PoissonPMF(0, 3); got != 0 {
		t.Errorf("P(3;0) = %v, want 0", got)
	}
	if got := PoissonPMF(2, -1); got != 0 {
		t.Errorf("negative k should be 0, got %v", got)
	}
	// P(k=1; lambda=1) = e^-1.
	if got := PoissonPMF(1, 1); !almostEqual(got, 0.3678794411714423, 1e-12) {
		t.Errorf("P(1;1) = %v", got)
	}
	// Large k stays finite (log-space computation).
	if got := PoissonPMF(100, 100); !IsFinite(got) || got <= 0 {
		t.Errorf("P(100;100) = %v, want finite positive", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.3, 1, 5, 20} {
		var s float64
		for k := 0; k < 200; k++ {
			s += PoissonPMF(lambda, k)
		}
		if !almostEqual(s, 1, 1e-9) {
			t.Errorf("sum of pmf(lambda=%v) = %v", lambda, s)
		}
	}
}
