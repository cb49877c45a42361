package stats

import "fmt"

// The allocating k-means build: the reference KmeansWorkspace is
// pinned against (TestKmeansWorkspaceMatchesReference,
// FuzzKmeansWorkspace). Same arithmetic, same RNG consumption, fresh
// slices everywhere.

// KMeans is KmeansWorkspace.KMeans with a fresh allocation for every
// slice it uses.
func KMeans(points [][]float64, k int, maxIter int, rng *RNG) (assign []int, centroids [][]float64, err error) {
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
	centroids = kmeansppInit(points, k, rng)
	assign = make([]int, n)
	counts := make([]int, k)
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

// kmeansppInit chooses k starting centroids with the k-means++ weighting.
func kmeansppInit(points [][]float64, k int, rng *RNG) [][]float64 {
	if rng == nil {
		rng = NewRNG(1)
	}
	n := len(points)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	d2 := make([]float64, n)
	for len(centroids) < k {
		var sum float64
		for i, p := range points {
			best := sqDist(p, centroids[0])
			for _, c := range centroids[1:] {
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
		centroids = append(centroids, append([]float64(nil), points[idx]...))
	}
	return centroids
}

// ClusterSizes returns how many points landed in each of k clusters.
func ClusterSizes(assign []int, k int) []int {
	sizes := make([]int, k)
	for _, a := range assign {
		if a >= 0 && a < k {
			sizes[a]++
		}
	}
	return sizes
}

// Silhouette returns the mean silhouette coefficient of a clustering, a
// quick quality measure in [-1, 1] used by tests to sanity-check that
// the recurrence clusters are actually compact.
func Silhouette(points [][]float64, assign []int, k int) float64 {
	n := len(points)
	if n < 2 || k < 2 {
		return 0
	}
	sizes := ClusterSizes(assign, k)
	var total float64
	counted := 0
	for i := range points {
		ci := assign[i]
		if sizes[ci] < 2 {
			continue // silhouette undefined for singleton clusters
		}
		var a float64
		b := -1.0
		meanTo := make([]float64, k)
		cnt := make([]int, k)
		for j := range points {
			if i == j {
				continue
			}
			d := sqrt(sqDist(points[i], points[j]))
			meanTo[assign[j]] += d
			cnt[assign[j]]++
		}
		for c := 0; c < k; c++ {
			if cnt[c] == 0 {
				continue
			}
			m := meanTo[c] / float64(cnt[c])
			if c == ci {
				a = m
			} else if b < 0 || m < b {
				b = m
			}
		}
		if b < 0 {
			continue
		}
		den := a
		if b > den {
			den = b
		}
		if den > 0 {
			total += (b - a) / den
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// Silhouette is the package-level Silhouette with its per-point
// accumulators drawn from the workspace instead of freshly allocated
// for every point: the k-means++ distance vector and the count array,
// both dead once KMeans has returned.
func (w *KmeansWorkspace) Silhouette(points [][]float64, assign []int, k int) float64 {
	n := len(points)
	if n < 2 || k < 2 {
		return 0
	}
	sizes := w.ClusterSizes(assign, k)
	var total float64
	counted := 0
	for i := range points {
		ci := assign[i]
		if sizes[ci] < 2 {
			continue // silhouette undefined for singleton clusters
		}
		var a float64
		b := -1.0
		meanTo := floatsScratch(&w.d2, k)
		cnt := intsScratch(&w.counts, k)
		for j := range points {
			if i == j {
				continue
			}
			d := sqrt(sqDist(points[i], points[j]))
			meanTo[assign[j]] += d
			cnt[assign[j]]++
		}
		for c := 0; c < k; c++ {
			if cnt[c] == 0 {
				continue
			}
			m := meanTo[c] / float64(cnt[c])
			if c == ci {
				a = m
			} else if b < 0 || m < b {
				b = m
			}
		}
		if b < 0 {
			continue
		}
		den := a
		if b > den {
			den = b
		}
		if den > 0 {
			total += (b - a) / den
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
