package core

import (
	"cchunter/internal/auditor"
	"cchunter/internal/pool"
	"cchunter/internal/stats"
)

// BurstConfig tunes the recurrent burst pattern detector (§IV-B).
type BurstConfig struct {
	// LikelihoodThreshold is the minimum likelihood ratio of the
	// second (burst) distribution for an alarm. The paper observes
	// ≥0.9 on real channels (even at 0.1 bps) and <0.5 on benign
	// programs, and sets a conservative 0.5.
	LikelihoodThreshold float64
	// WindowQuanta bounds how many OS time quanta one analysis covers
	// (paper: 512, i.e. 51.2 s, "to avoid diluting the significance of
	// event density histograms").
	WindowQuanta int
	// ClusterK is the k for the recurrence clustering step.
	ClusterK int
	// FeatureBins is the dimensionality histograms are compressed to
	// before clustering (the paper's "feature dimension reduction").
	FeatureBins int
	// MinBurstQuanta is the minimum number of quanta containing burst
	// windows for the pattern to count as recurrent.
	MinBurstQuanta int
	// DominantClusterShare is the fraction of bursty quanta the
	// largest burst cluster must hold: recurring transmissions produce
	// *similar* histograms that cluster together, while random bursts
	// scatter.
	DominantClusterShare float64
	// Seed drives the (deterministic) k-means initialization.
	Seed uint64
}

// DefaultBurstConfig returns the paper's parameters.
func DefaultBurstConfig() BurstConfig {
	return BurstConfig{
		LikelihoodThreshold:  0.5,
		WindowQuanta:         512,
		ClusterK:             4,
		FeatureBins:          8,
		MinBurstQuanta:       2,
		DominantClusterShare: 0.35,
		Seed:                 1,
	}
}

// BurstAnalysis is the outcome of one recurrent-burst analysis window.
type BurstAnalysis struct {
	// Histogram is the event density histogram merged over the window
	// (Figure 6).
	Histogram *stats.Histogram
	// ThresholdDensity is the bin splitting the non-burst distribution
	// from the burst distribution (§IV-B step 3).
	ThresholdDensity int
	// NonBurstMean is the mean density of the first distribution
	// (bins below the threshold); below 1.0 when bursts exist.
	NonBurstMean float64
	// BurstMean is the mean density of the second distribution (bins
	// at or above the threshold); above 1.0 when bursts exist.
	BurstMean float64
	// LikelihoodRatio is the burst distribution's share of all
	// non-zero-density windows (§IV-B step 4; bin #0 is omitted since
	// it contributes no contention).
	LikelihoodRatio float64
	// HasBursts reports whether a significant second distribution
	// exists.
	HasBursts bool
	// BurstQuanta is how many quanta contained burst windows.
	BurstQuanta int
	// QuantaAnalyzed is how many quanta the window covered.
	QuantaAnalyzed int
	// Recurrent reports whether burst patterns recur across quanta
	// (§IV-B step 5).
	Recurrent bool
	// DominantShare is the largest burst cluster's share of bursty
	// quanta.
	DominantShare float64
	// Detected is the final verdict: significant recurrent bursts.
	Detected bool
}

// AnalyzeBursts runs the recurrent burst pattern detection algorithm
// over a sequence of per-quantum event density histograms (the
// CC-Auditor's recorded output). Only the most recent
// cfg.WindowQuanta records are considered. The recurrence clustering
// runs in ws, so repeated analyses are allocation-flat.
func AnalyzeBursts(records []auditor.QuantumHistogram, cfg BurstConfig, ws *Workspace) BurstAnalysis {
	if cfg.WindowQuanta > 0 && len(records) > cfg.WindowQuanta {
		records = records[len(records)-cfg.WindowQuanta:]
	}
	var out BurstAnalysis
	out.QuantaAnalyzed = len(records)
	if len(records) == 0 {
		return out
	}
	merged := stats.NewHistogram(records[0].Hist.NumBins())
	for _, r := range records {
		merged.Merge(r.Hist)
	}
	out.Histogram = merged
	out.ThresholdDensity = ThresholdDensity(merged)
	out.NonBurstMean = meanBelow(merged, out.ThresholdDensity)
	out.BurstMean = merged.MeanDensityFrom(out.ThresholdDensity)
	out.LikelihoodRatio = LikelihoodRatio(merged, out.ThresholdDensity)
	out.HasBursts = out.ThresholdDensity > 0 &&
		merged.TotalFrom(out.ThresholdDensity) > 0 &&
		out.BurstMean > 1.0 &&
		out.LikelihoodRatio >= cfg.LikelihoodThreshold

	// Step 5: recurrence of burst patterns across quanta.
	out.BurstQuanta, out.DominantShare, out.Recurrent = analyzeRecurrence(records, out.ThresholdDensity, cfg, &ws.km)
	out.Detected = out.HasBursts && out.Recurrent
	return out
}

// ThresholdDensity implements §IV-B step 3: scanning the histogram
// left to right, the threshold density is the first bin that is
// smaller than its predecessor and no larger than its successor. When
// no such bin exists, it falls back to the bin where the slope of the
// (fitted) curve becomes gentle. It returns 0 when the histogram has
// no usable mass (then there is no second distribution at all).
func ThresholdDensity(h *stats.Histogram) int {
	top := h.NonZeroMax()
	if top <= 0 {
		return 0
	}
	// Bin reads in place (0 past the top bin); the streaming daemon
	// calls this every quantum, so it copies nothing.
	for i := 1; i <= top; i++ {
		if b := h.Bin(i); b < h.Bin(i-1) && b <= h.Bin(i+1) {
			return i
		}
	}
	// Fallback: first bin where the downward slope flattens to under
	// 5% of the peak per bin.
	var peak uint64
	for i := 0; i <= top; i++ {
		peak = max(peak, h.Bin(i))
	}
	gentle := peak / 20
	for i := 1; i <= top; i++ {
		drop := int64(h.Bin(i-1)) - int64(h.Bin(i))
		if drop >= 0 && uint64(drop) <= gentle {
			return i
		}
	}
	return top
}

// LikelihoodRatio implements §IV-B step 4: the number of samples in
// the identified (burst) distribution divided by the total number of
// samples, omitting bin #0 since it contributes no contention.
func LikelihoodRatio(h *stats.Histogram, threshold int) float64 {
	if threshold < 1 {
		threshold = 1
	}
	total := h.TotalFrom(1)
	if total == 0 {
		return 0
	}
	return float64(h.TotalFrom(threshold)) / float64(total)
}

// meanBelow returns the mean density over bins [0, threshold).
func meanBelow(h *stats.Histogram, threshold int) float64 {
	var s, n float64
	for i := 0; i < threshold && i < h.NumBins(); i++ {
		s += float64(float64(i) * float64(h.Bin(i)))
		n += float64(h.Bin(i))
	}
	if n == 0 {
		return 0
	}
	return s / n
}

// analyzeRecurrence implements §IV-B step 5: discretize each quantum's
// histogram into a short string, cluster the strings with k-means, and
// check that the quanta containing bursts form a coherent recurring
// cluster rather than scattered noise.
func analyzeRecurrence(records []auditor.QuantumHistogram, threshold int, cfg BurstConfig, km *stats.KmeansWorkspace) (burstQuanta int, dominantShare float64, recurrent bool) {
	if threshold < 1 {
		threshold = 1
	}
	// The point matrix is pooled: each feature vector is borrowed for
	// the duration of the clustering and returned on every exit path.
	// The row-header array is workspace scratch — burstQuanta never
	// exceeds len(records), so the appends below can never outgrow it.
	burstFeatures := km.PointRows(len(records))
	defer func() {
		for _, f := range burstFeatures {
			pool.PutFloat64s(f)
		}
	}()
	for _, r := range records {
		if r.Hist.TotalFrom(threshold) > 0 {
			burstQuanta++
			f := pool.Float64s(featureBands(r.Hist.NumBins(), cfg.FeatureBins))
			discretizeInto(f, r.Hist)
			burstFeatures = append(burstFeatures, f)
		}
	}
	if burstQuanta < cfg.MinBurstQuanta {
		return burstQuanta, 0, false
	}
	// With only a handful of bursty quanta there is no basis for many
	// clusters; k grows with the sample so that small windows are not
	// shredded into singletons.
	k := cfg.ClusterK
	if limit := 1 + len(burstFeatures)/3; k > limit {
		k = limit
	}
	rng := stats.SeededRNG(cfg.Seed)
	assign, _, err := km.KMeans(burstFeatures, k, 100, &rng)
	if err != nil {
		// Unclusterable features (cannot happen for the fixed-width
		// discretization above, but a supervised detector degrades
		// rather than crashes): no recurrence can be established.
		return burstQuanta, 0, false
	}
	largest := 0
	for _, s := range km.ClusterSizes(assign, k) {
		if s > largest {
			largest = s
		}
	}
	dominantShare = float64(largest) / float64(len(burstFeatures))
	return burstQuanta, dominantShare, dominantShare >= cfg.DominantClusterShare
}

// DiscretizeHistogram compresses a histogram into a short string of
// log-scaled levels — the "discretize the event density histograms
// into strings" step. Bins are grouped into log₂-spaced density bands
// ({1}, {2,3}, {4..7}, {8..15}, ...), bin 0 is excluded (it records
// the absence of contention), and each band's level is the log-scaled
// *fraction* of non-zero-density windows it holds. Two quanta carrying
// the same burst pattern thus map to nearby strings regardless of how
// many windows they contain or how much unrelated low-density noise
// surrounds the bursts, while a quantum with and without the burst
// band differ sharply.
//
// maxFeatures caps the number of bands (0 means enough bands to cover
// every bin).
func DiscretizeHistogram(h *stats.Histogram, maxFeatures int) []float64 {
	out := make([]float64, featureBands(h.NumBins(), maxFeatures))
	discretizeInto(out, h)
	return out
}

// featureBands returns the number of log₂ density bands a histogram of
// numBins bins discretizes into, capped at maxFeatures (0 = no cap).
func featureBands(numBins, maxFeatures int) int {
	bands := 0
	for 1<<bands < numBins {
		bands++
	}
	if maxFeatures > 0 && bands > maxFeatures {
		bands = maxFeatures
	}
	return bands
}

// discretizeInto fills out (zeroed, length = featureBands(...)) with
// the discretized string of h. The recurrence step calls it with
// pooled vectors; DiscretizeHistogram with a fresh allocation.
func discretizeInto(out []float64, h *stats.Histogram) {
	n := h.NumBins()
	bands := len(out)
	total := float64(h.TotalFrom(1))
	if total == 0 {
		return
	}
	for f := 0; f < bands; f++ {
		lo := 1 << f
		hi := 1 << (f + 1)
		if f == bands-1 && hi < n {
			hi = n // last band absorbs the tail
		}
		var mass uint64
		for b := lo; b < hi && b < n; b++ {
			mass += h.Bin(b)
		}
		if mass > 0 {
			// Levels 1..~16 on a log scale of the mass fraction.
			frac := float64(mass) / total
			level := 16 + log2(frac) // frac=1 → 16; frac=2^-16 → 0
			if level < 1 {
				level = 1
			}
			out[f] = level
		}
	}
}

func log2(x float64) float64 { return ln(x) / ln2 }
