package stats

import (
	"fmt"
	"testing"
)

// benchSeries builds a deterministic pseudo-periodic series.
func benchSeries(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%17) - 8
	}
	return xs
}

// BenchmarkAutocorrelogramCrossover is the measurement behind
// fftCostFactor: it times the naive and FFT paths across the
// (length, maxLag) grid the detectors actually visit. Re-run it when
// porting to new hardware and adjust the constant if the break-even
// ratio moves (DESIGN.md §10 records the reference numbers).
func BenchmarkAutocorrelogramCrossover(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536} {
		for _, lag := range []int{64, 256, 1024, 4096} {
			if lag >= n {
				continue
			}
			xs := benchSeries(n)
			b.Run(fmt.Sprintf("naive/n=%d/lag=%d", n, lag), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AutocorrelogramNaive(xs, lag)
				}
			})
			b.Run(fmt.Sprintf("fft/n=%d/lag=%d", n, lag), func(b *testing.B) {
				w := NewWorkspace()
				centered := make([]float64, n)
				out := make([]float64, lag+1)
				den := centerInto(centered, xs)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.fftAutocorr(centered, den, out)
				}
			})
		}
	}
}

// BenchmarkWorkspaceAutocorrelogram is the workspace-reusing hot path
// at paper-scale train length — the configuration the acceptance
// criterion pins (n=65536, maxLag=4096, zero allocs/op).
func BenchmarkWorkspaceAutocorrelogram(b *testing.B) {
	xs := benchSeries(65536)
	w := NewWorkspace()
	w.Autocorrelogram(xs, 4096) // warm the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Autocorrelogram(xs, 4096)
	}
}

// BenchmarkAutocorrelogramWindow times one conflict-miss window of the
// fleet's shape (maxLag = n-1): about 400 events takes a 1,024-point
// transform, and the short windows take the naive sum.
func BenchmarkAutocorrelogramWindow(b *testing.B) {
	for _, n := range []int{60, 100, 200, 395} {
		r := NewRNG(uint64(n))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(8))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := NewWorkspace()
			w.Autocorrelogram(xs, n-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Autocorrelogram(xs, n-1)
			}
		})
	}
}
