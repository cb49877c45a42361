package stats

import (
	"errors"
	"fmt"
)

// ErrBadInput is wrapped by every input validation error in this
// package, matching the ErrBadConfig convention of the auditor and
// fault-injector packages: callers test with errors.Is and degrade
// instead of crashing.
var ErrBadInput = errors.New("stats: bad input")

// KmeansWorkspace owns the scratch buffers of one k-means clustering —
// the assignment and count arrays, the flat centroid arena and the
// k-means++ distance vector — so repeated clusterings (one per
// analyzed quantum window, thousands per calibration corpus replay)
// run without a single heap allocation after warm-up.
//
// The zero value is ready to use. A workspace is not safe for
// concurrent use; slices returned by its methods alias the workspace
// and are valid only until its next call. The allocating reference
// build it is pinned against lives in kmeans_ref_test.go (see
// TestKmeansWorkspaceMatchesReference).
type KmeansWorkspace struct {
	assign    []int
	counts    []int
	centroids [][]float64
	cbuf      []float64 // flat k×dim centroid backing
	d2        []float64
	sizes     []int
	points    [][]float64
}

// PointRows returns a length-0 row-header slice with capacity for at
// least capHint points, so callers can assemble a point matrix by
// appending without allocating the header array on every analysis.
// The headers alias the workspace; they are valid until the next
// PointRows call.
func (w *KmeansWorkspace) PointRows(capHint int) [][]float64 {
	if cap(w.points) < capHint {
		w.points = make([][]float64, 0, capHint)
	}
	return w.points[:0]
}

// intsScratch returns a zeroed length-n view of *buf, growing it only
// when capacity is short.
func intsScratch(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// floatsScratch returns a zeroed length-n view of *buf.
func floatsScratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// centroidRows shapes the workspace's centroid arena into k rows of
// dim, each row capped so row-local appends can never bleed across.
func (w *KmeansWorkspace) centroidRows(k, dim int) [][]float64 {
	if cap(w.cbuf) < k*dim {
		w.cbuf = make([]float64, k*dim)
	}
	w.cbuf = w.cbuf[:k*dim]
	if cap(w.centroids) < k {
		w.centroids = make([][]float64, k)
	}
	w.centroids = w.centroids[:k]
	for i := range w.centroids {
		w.centroids[i] = w.cbuf[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return w.centroids
}

// KMeans clusters fixed-dimension float vectors with Lloyd's algorithm,
// entirely in the workspace. The recurrent-burst detector (§IV-B step
// 5) discretizes each quantum's event-density histogram into a short
// string and clusters the string feature vectors to find recurring
// burst shapes across a 512-quantum window. Initialization is
// deterministic k-means++ driven by the provided RNG, so detection runs
// are reproducible.
//
// It returns the cluster assignment for each point and the final
// centroids; both alias the workspace. k is clamped to len(points);
// empty input returns nils. Points of mixed dimensionality are an
// ErrBadInput: there is no meaningful distance between them.
func (w *KmeansWorkspace) KMeans(points [][]float64, k int, maxIter int, rng *RNG) (assign []int, centroids [][]float64, err error) {
	n := len(points)
	if n == 0 || k <= 0 {
		return nil, nil, nil
	}
	if k > n {
		k = n
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, nil, fmt.Errorf("%w: KMeans point %d has dimension %d, want %d",
				ErrBadInput, i, len(p), dim)
		}
	}
	centroids = w.kmeansppInit(points, k, dim, rng)
	assign = intsScratch(&w.assign, n)
	counts := intsScratch(&w.counts, k)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, sqDist(p, centroids[0])
			for c := 1; c < k; c++ {
				if d := sqDist(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best || iter == 0 {
				if assign[i] != best {
					changed = true
				}
				assign[i] = best
			}
		}
		if iter > 0 && !changed {
			break
		}
		// Recompute centroids.
		for c := range centroids {
			for d := range centroids[c] {
				centroids[c][d] = 0
			}
			counts[c] = 0
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d, v := range p {
				centroids[c][d] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster on the farthest point from
				// its centroid; keeps k clusters alive deterministically.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := sqDist(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], points[far])
				continue
			}
			inv := 1 / float64(counts[c])
			for d := range centroids[c] {
				centroids[c][d] *= inv
			}
		}
	}
	return assign, centroids, nil
}

// kmeansppInit chooses k starting centroids with the k-means++
// weighting, writing them into the centroid arena.
func (w *KmeansWorkspace) kmeansppInit(points [][]float64, k, dim int, rng *RNG) [][]float64 {
	if rng == nil {
		rng = NewRNG(1)
	}
	n := len(points)
	rows := w.centroidRows(k, dim)
	first := rng.Intn(n)
	copy(rows[0], points[first])
	m := 1
	d2 := floatsScratch(&w.d2, n)
	for m < k {
		var sum float64
		for i, p := range points {
			best := sqDist(p, rows[0])
			for _, c := range rows[1:m] {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			sum += best
		}
		idx := 0
		if sum > 0 {
			target := rng.Float64() * sum
			var acc float64
			for i, d := range d2 {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		} else {
			idx = rng.Intn(n)
		}
		copy(rows[m], points[idx])
		m++
	}
	return rows
}

// ClusterSizes returns how many points landed in each of k clusters;
// the result aliases the workspace.
func (w *KmeansWorkspace) ClusterSizes(assign []int, k int) []int {
	sizes := intsScratch(&w.sizes, k)
	for _, a := range assign {
		if a >= 0 && a < k {
			sizes[a]++
		}
	}
	return sizes
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
