package core

import (
	"testing"

	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

func traceBus() trace.Kind  { return trace.KindBusLock }
func traceDiv() trace.Kind  { return trace.KindDivContention }
func traceConf() trace.Kind { return trace.KindConflictMiss }

// channelTrain builds a conflict-miss train like the cache channel's:
// per bit, a run of (trojan→spy) entries over half the sets followed
// by a run of (spy→trojan) entries — period = sets.
func channelTrain(bits, sets int, gap uint64) *trace.Train {
	tr := trace.NewTrain(bits * sets)
	cycle := uint64(0)
	for b := 0; b < bits; b++ {
		for s := 0; s < sets/2; s++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss,
				Actor: 0, Victim: 1, Unit: uint32(s)})
			cycle += gap
		}
		for s := 0; s < sets/2; s++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss,
				Actor: 1, Victim: 0, Unit: uint32(s)})
			cycle += gap
		}
	}
	return tr
}

// noisyChannelTrain interleaves channel entries with random other-pair
// noise at the given probability per entry.
func noisyChannelTrain(bits, sets int, gap uint64, noiseProb float64, seed uint64) *trace.Train {
	base := channelTrain(bits, sets, gap)
	rng := stats.NewRNG(seed)
	tr := trace.NewTrain(base.Len())
	for _, e := range base.Events() {
		tr.Append(e)
		if rng.Float64() < noiseProb {
			tr.Append(trace.Event{Cycle: e.Cycle, Kind: trace.KindConflictMiss,
				Actor: uint8(2 + rng.Intn(4)), Victim: uint8(2 + rng.Intn(4)),
				Unit: uint32(rng.Intn(1024))})
		}
	}
	return tr
}

func TestOscillationDetectsCacheChannel(t *testing.T) {
	tr := channelTrain(8, 512, 100)
	a := analyzeOscillation(tr, DefaultOscillationConfig())
	if !a.Detected {
		t.Fatalf("clean channel not detected: %+v", a)
	}
	if a.FundamentalLag < 480 || a.FundamentalLag > 545 {
		t.Errorf("fundamental lag = %d, want ≈512 (the number of sets)", a.FundamentalLag)
	}
	if a.PeakValue < 0.85 {
		t.Errorf("peak = %v, want ≥0.85 as in Figure 8b", a.PeakValue)
	}
	if a.Harmonics < 2 {
		t.Errorf("harmonics = %d", a.Harmonics)
	}
}

func TestOscillationLagTracksSetCount(t *testing.T) {
	// Figure 13: fewer sets → proportionally shorter period.
	for _, sets := range []int{64, 128, 256} {
		a := analyzeOscillation(channelTrain(16, sets, 100), DefaultOscillationConfig())
		if !a.Detected {
			t.Errorf("%d sets: not detected", sets)
			continue
		}
		lo, hi := sets*85/100, sets*115/100
		if a.FundamentalLag < lo || a.FundamentalLag > hi {
			t.Errorf("%d sets: fundamental = %d, want within 15%%", sets, a.FundamentalLag)
		}
	}
}

func TestOscillationSurvivesNoise(t *testing.T) {
	// Random conflicts from other contexts shift the peak slightly
	// (the paper sees 533 instead of 512) but must not erase it.
	a := analyzeOscillation(noisyChannelTrain(8, 512, 100, 0.05, 3), DefaultOscillationConfig())
	if !a.Detected {
		t.Fatalf("noisy channel not detected: peak=%v lag=%d", a.PeakValue, a.FundamentalLag)
	}
	if a.FundamentalLag < 500 || a.FundamentalLag > 600 {
		t.Errorf("noisy fundamental = %d, want slightly above 512", a.FundamentalLag)
	}
}

// sparseCoupleTrain interleaves one couple's direction runs (runLen
// events each way) with spacer events that carry no couple, so the
// couple holds one event in every stride.
func sparseCoupleTrain(events, stride, runLen int) *trace.Train {
	tr := trace.NewTrain(events)
	for i := 0; i < events; i++ {
		e := trace.Event{Cycle: uint64(i) * 50, Kind: trace.KindConflictMiss, Actor: 2, Victim: trace.NoContext}
		if i%stride == 0 {
			e.Actor, e.Victim = 0, 1
			if (i/stride/runLen)%2 == 1 {
				e.Actor, e.Victim = 1, 0
			}
		}
		tr.Append(e)
	}
	return tr
}

// TestMinCoupleShareBoundary: a couple is autocorrelated only when it
// holds at least 5% of the window's events. At one event in 18
// (5.6%) its oscillation is found; at one in 23 (4.3%) it is skipped.
func TestMinCoupleShareBoundary(t *testing.T) {
	for _, tc := range []struct {
		stride int
		want   bool
	}{{18, true}, {23, false}} {
		a := analyzeOscillation(sparseCoupleTrain(4000, tc.stride, 10), DefaultOscillationConfig())
		if a.Detected != tc.want {
			t.Errorf("one couple event in %d: detected=%v, want %v (lag %d, peak %.3f)", tc.stride, a.Detected, tc.want, a.FundamentalLag, a.PeakValue)
		}
	}
}

// TestMinLagInclusive: a period of exactly minLag events is a
// fundamental, not a trivially short period.
func TestMinLagInclusive(t *testing.T) {
	a := analyzeOscillation(channelTrain(64, minLag, 100), DefaultOscillationConfig())
	if !a.Detected || a.FundamentalLag != minLag {
		t.Errorf("period-%d channel: detected=%v at lag %d", minLag, a.Detected, a.FundamentalLag)
	}
}

// TestHarmonicToleranceBand: the m-th harmonic of a fundamental f is
// found anywhere within ±15% of m·f.
func TestHarmonicToleranceBand(t *testing.T) {
	for _, tc := range []struct {
		lag  int
		want int
	}{{229, 2}, {231, 1}} { // the second harmonic of 100 searches 170..230
		acf := make([]float64, 1001)
		acf[0], acf[100], acf[tc.lag] = 1, 0.9, 0.45
		var w stats.Workspace
		if got := countHarmonics(make([]float64, len(acf)), acf, 100, DefaultOscillationConfig(), &w); got != tc.want {
			t.Errorf("second peak at lag %d: %d harmonics, want %d", tc.lag, got, tc.want)
		}
	}
}

func TestOscillationRejectsRandomTraffic(t *testing.T) {
	rng := stats.NewRNG(11)
	tr := trace.NewTrain(4096)
	for i := uint64(0); i < 4096; i++ {
		tr.Append(trace.Event{Cycle: i * 50, Kind: trace.KindConflictMiss,
			Actor: uint8(rng.Intn(8)), Victim: uint8(rng.Intn(8)), Unit: uint32(rng.Intn(512))})
	}
	a := analyzeOscillation(tr, DefaultOscillationConfig())
	if a.Detected {
		t.Errorf("random traffic detected as covert: %+v", a)
	}
}

func TestOscillationRejectsBriefPeriodicity(t *testing.T) {
	// The paper's webserver shows periodicity between lags 120–180
	// that dies out: a couple of periods then noise. MinHarmonics=2
	// must reject it when the second harmonic is absent.
	tr := trace.NewTrain(2048)
	cycle := uint64(0)
	rng := stats.NewRNG(13)
	// Two clean periods of 150, then pure noise.
	for p := 0; p < 2; p++ {
		for i := 0; i < 75; i++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 0, Victim: 1, Unit: uint32(i)})
			cycle += 10
		}
		for i := 0; i < 75; i++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 1, Victim: 0, Unit: uint32(i)})
			cycle += 10
		}
	}
	for i := 0; i < 1500; i++ {
		tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss,
			Actor: uint8(rng.Intn(8)), Victim: uint8(rng.Intn(8)), Unit: uint32(rng.Intn(512))})
		cycle += 10
	}
	a := analyzeOscillation(tr, DefaultOscillationConfig())
	if a.Detected {
		t.Errorf("brief periodicity flagged as covert: %+v", a)
	}
}

func TestOscillationEmptyAndTiny(t *testing.T) {
	if a := analyzeOscillation(nil, DefaultOscillationConfig()); a.Detected {
		t.Error("nil train detected")
	}
	tr := trace.NewTrain(2)
	tr.Append(trace.Event{Cycle: 1, Actor: 0, Victim: 1})
	if a := analyzeOscillation(tr, DefaultOscillationConfig()); a.Detected || a.Events != 1 {
		t.Error("tiny train should not be analyzable")
	}
}

func TestOscillationConstantPairNotDetected(t *testing.T) {
	// All events from one pair: constant label series, zero variance.
	tr := trace.NewTrain(512)
	for i := uint64(0); i < 512; i++ {
		tr.Append(trace.Event{Cycle: i, Kind: trace.KindConflictMiss, Actor: 0, Victim: 1, Unit: uint32(i % 7)})
	}
	if a := analyzeOscillation(tr, DefaultOscillationConfig()); a.Detected {
		t.Error("constant series detected as oscillation")
	}
}

func TestAnalyzeOscillationWindows(t *testing.T) {
	// Channel active only in [0, 100k); the rest quiet. Windowed
	// analysis isolates the active window.
	tr := channelTrain(4, 128, 100) // spans 4*128*100 = 51200 cycles
	analyses := analyzeWindows(tr, 0, 400_000, 100_000, DefaultOscillationConfig())
	if len(analyses) != 1 {
		t.Fatalf("non-empty windows = %d, want 1", len(analyses))
	}
	if !analyses[0].Detected {
		t.Error("active window not detected")
	}
	best, ok := BestWindow(analyses)
	if !ok || !best.Detected {
		t.Error("BestWindow wrong")
	}
	if _, ok := BestWindow(nil); ok {
		t.Error("BestWindow of empty should be !ok")
	}
	if analyzeWindows(nil, 0, 10, 5, DefaultOscillationConfig()) != nil {
		t.Error("nil train should give no windows")
	}
	if analyzeWindows(tr, 0, 10, 0, DefaultOscillationConfig()) != nil {
		t.Error("zero window should give no windows")
	}
}

func TestBestWindowPrefersDetected(t *testing.T) {
	a := OscillationAnalysis{Detected: false, PeakValue: 0.9}
	b := OscillationAnalysis{Detected: true, PeakValue: 0.6}
	best, ok := BestWindow([]OscillationAnalysis{a, b})
	if !ok || !best.Detected {
		t.Error("detected window should win over stronger undetected one")
	}
	c := OscillationAnalysis{Detected: true, PeakValue: 0.8}
	best, _ = BestWindow([]OscillationAnalysis{b, c})
	if best.PeakValue != 0.8 {
		t.Error("stronger detected window should win")
	}
}

func TestFinerWindowsHelpLowBandwidth(t *testing.T) {
	// Figure 11's mechanism: the channel is active for a small part of
	// the quantum and noise dominates the rest. Full-quantum analysis
	// dilutes the signal; quarter-quantum windows recover it.
	rng := stats.NewRNG(17)
	tr := trace.NewTrain(8192)
	cycle := uint64(0)
	// Active burst: 6 periods of 128 sets in [0, 160k).
	for b := 0; b < 6; b++ {
		for i := 0; i < 64; i++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 0, Victim: 1, Unit: uint32(i)})
			cycle += 100
		}
		for i := 0; i < 64; i++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 1, Victim: 0, Unit: uint32(i)})
			cycle += 100
		}
	}
	// Noise for the rest of the 1M-cycle quantum, 3× the event count.
	for i := 0; i < 2400; i++ {
		tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss,
			Actor: uint8(rng.Intn(8)), Victim: uint8(rng.Intn(8)), Unit: uint32(rng.Intn(512))})
		cycle += 350
	}
	cfg := DefaultOscillationConfig()
	full := analyzeOscillation(tr, cfg)
	quarters := analyzeWindows(tr, 0, 1_000_000, 250_000, cfg)
	best, ok := BestWindow(quarters)
	if !ok {
		t.Fatal("no quarter windows")
	}
	if !best.Detected {
		t.Fatalf("quarter-window analysis missed the channel: %+v", best)
	}
	if best.PeakValue <= full.PeakValue {
		t.Errorf("finer window peak %v not stronger than full-quantum %v",
			best.PeakValue, full.PeakValue)
	}
}

func TestRawPairSeriesMode(t *testing.T) {
	// Clean channel: raw mode detects like couple mode.
	cfg := DefaultOscillationConfig()
	cfg.RawPairSeries = true
	clean := analyzeOscillation(channelTrain(8, 256, 100), cfg)
	if !clean.Detected {
		t.Fatalf("raw mode missed a clean channel: %+v", clean)
	}
	if clean.Pair != [2]uint8{0, 1} {
		t.Errorf("dominant pair = %v", clean.Pair)
	}
	if clean.FundamentalLag < 230 || clean.FundamentalLag > 290 {
		t.Errorf("raw fundamental = %d", clean.FundamentalLag)
	}

	// Noisy channel: the raw series dilutes with the noise share while
	// the couple projection holds up — the Figure 11 mechanism.
	noisy := noisyChannelTrain(8, 256, 100, 0.4, 5)
	rawA := analyzeOscillation(noisy, cfg)
	cfg.RawPairSeries = false
	coupleA := analyzeOscillation(noisy, cfg)
	if !coupleA.Detected {
		t.Fatalf("couple mode missed the noisy channel: %+v", coupleA)
	}
	if rawA.PeakValue >= coupleA.PeakValue {
		t.Errorf("raw peak %v should fall below couple peak %v under noise",
			rawA.PeakValue, coupleA.PeakValue)
	}
}

func TestAppearanceOrderSeries(t *testing.T) {
	tr := trace.NewTrain(0)
	tr.Append(trace.Event{Cycle: 1, Actor: 3, Victim: 4})
	tr.Append(trace.Event{Cycle: 2, Actor: 4, Victim: 3})
	tr.Append(trace.Event{Cycle: 3, Actor: 3, Victim: 4})
	tr.Append(trace.Event{Cycle: 4, Actor: 7, Victim: 1})
	s := appearanceOrderSeries(tr)
	want := []float64{0, 1, 0, 2}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("series = %v, want %v", s, want)
		}
	}
}

func TestDominantCouple(t *testing.T) {
	tr := trace.NewTrain(0)
	for i := uint64(0); i < 10; i++ {
		tr.Append(trace.Event{Cycle: i, Actor: 2, Victim: 5})
	}
	tr.Append(trace.Event{Cycle: 11, Actor: 0, Victim: 1})
	tr.Append(trace.Event{Cycle: 12, Actor: 3, Victim: 3})               // self: ignored
	tr.Append(trace.Event{Cycle: 13, Actor: 6, Victim: trace.NoContext}) // victimless: ignored
	if got := dominantCouple(tr); got != [2]uint8{2, 5} {
		t.Errorf("dominant couple = %v", got)
	}
}
