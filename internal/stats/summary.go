package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanInts returns the arithmetic mean of xs, or 0 for an empty slice.
func MeanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// MinMax returns the smallest and largest values in xs, or (0, 0) for
// an empty slice — a truncated sensor path can legitimately deliver an
// empty window, and an analysis over it must degrade, not crash.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. An empty slice returns 0 and an
// out-of-range p is clamped into [0, 100]: percentile queries run over
// data a degraded sensor path produced, and must not crash on it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 1 {
		return c[0]
	}
	rank := float64(p / 100 * float64(len(c)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return float64(c[lo]*(1-frac)) + float64(c[hi]*frac)
}
