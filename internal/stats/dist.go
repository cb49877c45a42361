package stats

import "math"

// PoissonPMF returns P(X = k) for X ~ Poisson(lambda). Computed in log
// space so it stays finite for the large ks that show up in bursty
// event-density histograms.
func PoissonPMF(lambda float64, k int) float64 {
	if lambda < 0 || k < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return exp(float64(k)*ln(lambda) - lambda - lg)
}
