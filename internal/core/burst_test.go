package core

import (
	"testing"

	"cchunter/internal/auditor"
	"cchunter/internal/stats"
)

// covertQuantum builds a quantum histogram shaped like Figure 6: heavy
// bin 0 (quiet windows) plus a burst distribution around burstBin.
func covertQuantum(q uint64, quiet, bursts uint64, burstBin int) auditor.QuantumHistogram {
	h := stats.NewHistogram(128)
	h.AddN(0, quiet)
	h.AddN(burstBin-1, bursts/4)
	h.AddN(burstBin, bursts/2)
	h.AddN(burstBin+1, bursts/4)
	return auditor.QuantumHistogram{Quantum: q, Hist: h}
}

// benignQuantum builds a histogram with geometrically decaying random
// conflict densities and no second distribution.
func benignQuantum(q uint64, scale uint64) auditor.QuantumHistogram {
	h := stats.NewHistogram(128)
	h.AddN(0, scale*100)
	h.AddN(1, scale*20)
	h.AddN(2, scale*4)
	h.AddN(3, scale)
	return auditor.QuantumHistogram{Quantum: q, Hist: h}
}

func covertRecords(n int) []auditor.QuantumHistogram {
	recs := make([]auditor.QuantumHistogram, n)
	for i := range recs {
		recs[i] = covertQuantum(uint64(i), 2000, 100, 20)
	}
	return recs
}

func TestThresholdDensityValley(t *testing.T) {
	h := stats.NewHistogram(32)
	h.AddN(0, 100)
	h.AddN(1, 10)
	h.AddN(2, 1) // valley
	h.AddN(20, 30)
	// Scanning left to right: bin 1 fails (next bin is smaller), bin 2
	// fails (1 > 0), bin 3 is the first bin smaller than its
	// predecessor and no larger than its successor.
	got := ThresholdDensity(h)
	if got != 3 {
		t.Errorf("threshold = %d, want 3", got)
	}
}

func TestThresholdDensityGentleSlopeFallback(t *testing.T) {
	// Monotone decreasing histogram: no valley; threshold is where the
	// slope flattens.
	h := stats.NewHistogram(32)
	h.AddN(0, 1000)
	h.AddN(1, 100)
	h.AddN(2, 95)
	h.AddN(3, 94)
	got := ThresholdDensity(h)
	if got < 2 || got > 3 {
		t.Errorf("gentle-slope threshold = %d, want 2..3", got)
	}
}

func TestThresholdDensityEdge(t *testing.T) {
	if got := ThresholdDensity(stats.NewHistogram(8)); got != 0 {
		t.Errorf("empty histogram threshold = %d", got)
	}
	h := stats.NewHistogram(8)
	h.AddN(0, 50)
	if got := ThresholdDensity(h); got != 0 {
		t.Errorf("bin0-only histogram threshold = %d", got)
	}
}

func TestLikelihoodRatio(t *testing.T) {
	h := stats.NewHistogram(32)
	h.AddN(0, 1000) // omitted from LR
	h.AddN(1, 10)
	h.AddN(20, 90)
	if got := LikelihoodRatio(h, 10); !almostEq(got, 0.9, 1e-9) {
		t.Errorf("LR = %v, want 0.9", got)
	}
	if got := LikelihoodRatio(h, 0); !almostEq(got, 1.0, 1e-9) {
		t.Errorf("LR with threshold 0 should clamp to 1: %v", got)
	}
	if got := LikelihoodRatio(stats.NewHistogram(8), 2); got != 0 {
		t.Errorf("empty LR = %v", got)
	}
}

func almostEq(a, b, eps float64) bool { return absf(a-b) <= eps }

func TestAnalyzeBurstsDetectsCovertPattern(t *testing.T) {
	a := analyzeBursts(covertRecords(16), paperWindow)
	if !a.HasBursts {
		t.Errorf("covert pattern: HasBursts=false (LR=%v thr=%d burstMean=%v)",
			a.LikelihoodRatio, a.ThresholdDensity, a.BurstMean)
	}
	if a.LikelihoodRatio < 0.9 {
		t.Errorf("covert LR = %v, want ≥0.9 as in the paper", a.LikelihoodRatio)
	}
	if !a.Recurrent || !a.Detected {
		t.Errorf("covert pattern not flagged recurrent/detected: %+v", a)
	}
	if a.BurstMean <= 1.0 || a.NonBurstMean >= 1.0 {
		t.Errorf("distribution means wrong: non-burst=%v burst=%v", a.NonBurstMean, a.BurstMean)
	}
	if a.BurstQuanta != 16 {
		t.Errorf("burst quanta = %d, want 16", a.BurstQuanta)
	}
}

func TestAnalyzeBurstsRejectsBenignPattern(t *testing.T) {
	recs := make([]auditor.QuantumHistogram, 16)
	for i := range recs {
		recs[i] = benignQuantum(uint64(i), 10)
	}
	a := analyzeBursts(recs, paperWindow)
	if a.Detected {
		t.Errorf("benign pattern detected as covert: %+v", a)
	}
	if a.LikelihoodRatio >= 0.5 {
		t.Errorf("benign LR = %v, want <0.5 as in the paper", a.LikelihoodRatio)
	}
}

func TestAnalyzeBurstsEmptyAndQuiet(t *testing.T) {
	if a := analyzeBursts(nil, paperWindow); a.Detected || a.QuantaAnalyzed != 0 {
		t.Error("empty input must not detect")
	}
	// All-quiet quanta: bin0 only.
	recs := make([]auditor.QuantumHistogram, 8)
	for i := range recs {
		h := stats.NewHistogram(128)
		h.AddN(0, 1000)
		recs[i] = auditor.QuantumHistogram{Quantum: uint64(i), Hist: h}
	}
	if a := analyzeBursts(recs, paperWindow); a.Detected {
		t.Error("quiet system must not detect")
	}
}

func TestAnalyzeBurstsSingleBurstNotRecurrent(t *testing.T) {
	// One bursty quantum among quiet ones: below minBurstQuanta.
	recs := make([]auditor.QuantumHistogram, 8)
	for i := range recs {
		h := stats.NewHistogram(128)
		h.AddN(0, 1000)
		recs[i] = auditor.QuantumHistogram{Quantum: uint64(i), Hist: h}
	}
	recs[3] = covertQuantum(3, 1000, 50, 20)
	a := analyzeBursts(recs, paperWindow)
	if a.Recurrent {
		t.Error("single burst quantum must not be recurrent")
	}
	if a.Detected {
		t.Error("single burst must not trigger detection")
	}
}

func TestAnalyzeBurstsLowBandwidth(t *testing.T) {
	// 0.1 bps-like: bursts in only ~5 of 512 quanta, but identical in
	// shape. Likelihood ratio stays high because bin 0 is omitted.
	recs := make([]auditor.QuantumHistogram, 512)
	for i := range recs {
		h := stats.NewHistogram(128)
		h.AddN(0, 2500)
		recs[i] = auditor.QuantumHistogram{Quantum: uint64(i), Hist: h}
	}
	for _, q := range []int{50, 150, 250, 350, 450} {
		recs[q] = covertQuantum(uint64(q), 2500, 40, 20)
	}
	a := analyzeBursts(recs, paperWindow)
	if !a.Detected {
		t.Errorf("low-bandwidth channel missed: %+v", a)
	}
	if a.LikelihoodRatio < 0.9 {
		t.Errorf("low-bandwidth LR = %v, want ≥0.9", a.LikelihoodRatio)
	}
}

// TestLikelihoodThresholdBoundary pins the paper's LR ≥ 0.5 alarm
// (§IV-B): identical recurring quanta whose burst distribution holds
// 52% of the non-zero-density windows alarm, and 48% do not.
func TestLikelihoodThresholdBoundary(t *testing.T) {
	for _, tc := range []struct {
		low, burst uint64
		want       bool
	}{{48, 52, true}, {52, 48, false}} {
		recs := make([]auditor.QuantumHistogram, 8)
		for i := range recs {
			h := stats.NewHistogram(128)
			h.AddN(0, 2000)
			h.AddN(1, tc.low)
			h.AddN(20, tc.burst)
			recs[i] = auditor.QuantumHistogram{Quantum: uint64(i), Hist: h}
		}
		a := analyzeBursts(recs, paperWindow)
		if !a.Recurrent || a.Detected != tc.want {
			t.Errorf("LR %.2f: recurrent=%v detected=%v, want detected=%v", a.LikelihoodRatio, a.Recurrent, a.Detected, tc.want)
		}
	}
}

func TestAnalyzeBurstsWindowClipping(t *testing.T) {
	recs := covertRecords(16)
	a := analyzeBursts(recs, 4)
	if a.QuantaAnalyzed != 4 {
		t.Errorf("analyzed %d quanta, want window of 4", a.QuantaAnalyzed)
	}
}

func TestScatteredRandomBurstsNotRecurrent(t *testing.T) {
	// Bursty quanta whose shapes are all different (random densities
	// across the spectrum) cluster poorly: dominant share < 0.5.
	rng := stats.NewRNG(7)
	recs := make([]auditor.QuantumHistogram, 64)
	for i := range recs {
		h := stats.NewHistogram(128)
		h.AddN(0, 2000)
		// Random scatter: each bursty quantum has a unique profile.
		for j := 0; j < 4; j++ {
			h.AddN(2+rng.Intn(120), uint64(1+rng.Intn(4)))
		}
		recs[i] = auditor.QuantumHistogram{Quantum: uint64(i), Hist: h}
	}
	a := analyzeBursts(recs, paperWindow)
	// The scattered shapes may or may not clear the clustering bar,
	// but the likelihood ratio must not mimic a covert channel's ≥0.9
	// with a coherent second distribution.
	if a.Detected && a.LikelihoodRatio >= 0.9 && a.DominantShare >= 0.9 {
		t.Errorf("random scatter looked exactly like a covert channel: %+v", a)
	}
}

func TestDiscretizeHistogram(t *testing.T) {
	h := stats.NewHistogram(128)
	h.AddN(0, 100) // excluded: bin 0 is the absence of contention
	h.AddN(2, 10)
	h.AddN(20, 50)
	f := DiscretizeHistogram(h, 0)
	if len(f) != 7 { // log2 bands covering 128 bins
		t.Fatalf("feature length %d", len(f))
	}
	if f[1] <= 0 { // bin 2 lives in band {2,3}
		t.Error("band {2,3} should have mass")
	}
	if f[4] <= 0 { // bin 20 lives in band {16..31}
		t.Error("band {16..31} should have mass")
	}
	if f[4] <= f[1] {
		t.Error("the heavier band should have the higher level")
	}
	for i, v := range f {
		if i != 1 && i != 4 && v != 0 {
			t.Errorf("unexpected mass in band %d", i)
		}
	}
	// Similar shapes at different absolute scales map to the same
	// features (normalization property) — and bin 0 mass is ignored.
	h2 := stats.NewHistogram(128)
	h2.AddN(0, 99999)
	h2.AddN(2, 100)
	h2.AddN(20, 500)
	f2 := DiscretizeHistogram(h2, 0)
	for i := range f {
		if absf(f[i]-f2[i]) > 0.1 {
			t.Errorf("scaled histogram features differ at %d: %v vs %v", i, f[i], f2[i])
		}
	}
	// Empty histogram: all-zero features; cap respected.
	fe := DiscretizeHistogram(stats.NewHistogram(128), 4)
	if len(fe) != 4 {
		t.Errorf("capped feature bins = %d", len(fe))
	}
	for _, v := range fe {
		if v != 0 {
			t.Error("empty histogram should give zero features")
		}
	}
}

func TestDefaultDeltaT(t *testing.T) {
	if DefaultDeltaT(traceBus()) != 100_000 || DefaultDeltaT(traceDiv()) != 500 {
		t.Error("paper Δt constants wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflict-miss Δt should panic")
		}
	}()
	DefaultDeltaT(traceConf())
}

func TestDeltaTHeuristic(t *testing.T) {
	// Bus channel at 1000 bps: 2.5M-cycle bits, ~500 locks per bit →
	// ≈112k cycles, the right order of magnitude vs the paper's 100k.
	got := DeltaTHeuristic(2_500_000, 500)
	if got < 50_000 || got > 200_000 {
		t.Errorf("bus Δt heuristic = %d, want ~100k", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid input should panic")
		}
	}()
	DeltaTHeuristic(0, 10)
}
