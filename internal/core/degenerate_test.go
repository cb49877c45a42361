package core

// Degenerate-input tests: the detector must render a (non-)verdict,
// never die, when the sensor path delivers pathological trains —
// nothing at all, a single event, everything piled into one window, or
// densities past every hardware ceiling.

import (
	"testing"

	"cchunter/internal/auditor"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

func monitoredAuditor(t *testing.T, quantum uint64) *auditor.Auditor {
	t.Helper()
	a := auditor.MustNew(auditor.DefaultConfig(quantum))
	if err := a.Monitor(trace.KindBusLock, DeltaTBus); err != nil {
		t.Fatal(err)
	}
	if err := a.Monitor(trace.KindDivContention, DeltaTDivider); err != nil {
		t.Fatal(err)
	}
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeEmptyTrain(t *testing.T) {
	quantum := uint64(1_000_000)
	a := monitoredAuditor(t, quantum)
	rep := NewDetector(a, DefaultDetectorConfig(quantum, 8)).Analyze(4 * quantum)
	if rep.Detected {
		t.Error("empty train must not alarm")
	}
	if rep.Confidence != 1 {
		t.Errorf("confidence = %v on a pristine empty path", rep.Confidence)
	}
	if rep.Oscillation != nil && rep.Oscillation.Detected {
		t.Error("empty conflict train must not oscillate")
	}
}

func TestAnalyzeSingleEvent(t *testing.T) {
	quantum := uint64(1_000_000)
	a := monitoredAuditor(t, quantum)
	a.OnEvents([]trace.Event{{Cycle: 10, Kind: trace.KindBusLock, Actor: 0, Victim: trace.NoContext}})
	a.OnEvents([]trace.Event{{Cycle: 20, Kind: trace.KindConflictMiss, Actor: 0, Victim: 1}})
	rep := NewDetector(a, DefaultDetectorConfig(quantum, 8)).Analyze(4 * quantum)
	if rep.Detected {
		t.Error("one event must not alarm")
	}
}

func TestAnalyzeAllEventsInOneWindow(t *testing.T) {
	// Every event lands inside a single Δt window of a single quantum;
	// all other windows are empty. Analysis must survive the extreme
	// one-bin-against-zeros histogram shape.
	quantum := uint64(1_000_000)
	a := monitoredAuditor(t, quantum)
	for i := 0; i < 100; i++ {
		a.OnEvents([]trace.Event{{Cycle: uint64(i), Kind: trace.KindBusLock, Actor: 1, Victim: trace.NoContext}})
	}
	rep := NewDetector(a, DefaultDetectorConfig(quantum, 8)).Analyze(8 * quantum)
	for _, v := range rep.Contention {
		if v.Analysis.LikelihoodRatio < 0 || v.Analysis.LikelihoodRatio > 1 {
			t.Errorf("%v: LR %v outside [0,1]", v.Kind, v.Analysis.LikelihoodRatio)
		}
	}
}

func TestAnalyzeMaxDensitySaturation(t *testing.T) {
	// Densities far past the 128-entry histogram range: the top bin
	// clamps (as the hardware buffer would) and the verdict carries a
	// saturation diagnostic instead of an overflow.
	quantum := uint64(1_000_000)
	a := monitoredAuditor(t, quantum)
	for q := 0; q < 4; q++ {
		base := uint64(q) * quantum
		for i := 0; i < 50_000; i++ {
			a.OnEvents([]trace.Event{{
				Cycle: base + uint64(i)*10,
				Kind:  trace.KindBusLock, Actor: 1, Victim: trace.NoContext,
			}})
		}
	}
	d := NewDetector(a, DefaultDetectorConfig(quantum, 8))
	rep := d.Analyze(4 * quantum)
	var bus *ContentionVerdict
	for i := range rep.Contention {
		if rep.Contention[i].Kind == trace.KindBusLock {
			bus = &rep.Contention[i]
		}
	}
	if bus == nil {
		t.Fatal("no bus verdict")
	}
	if !bus.Degradation.Degraded || bus.Degradation.SaturationRate == 0 {
		t.Errorf("saturated run reported pristine: %+v", bus.Degradation)
	}
	if rep.Confidence >= 1 {
		t.Errorf("report confidence %v should drop under saturation", rep.Confidence)
	}
}

func TestHistogramDegenerateInputs(t *testing.T) {
	h := stats.NewHistogram(8)
	if h.Total() != 0 || h.NonZeroMax() != -1 || h.MeanDensity() != 0 {
		t.Error("empty histogram statistics wrong")
	}
	// Over-range densities clamp into the top bin and are counted.
	h.Add(7)
	h.Add(10_000)
	if h.Bin(7) != 2 {
		t.Errorf("top bin = %d, want 2 (clamped)", h.Bin(7))
	}
	if h.Clamped() != 1 {
		t.Errorf("clamped = %d, want 1", h.Clamped())
	}
	// A single-entry histogram still yields sane statistics.
	one := stats.NewHistogram(4)
	one.Add(2)
	if one.MeanDensity() != 2 || one.NonZeroMax() != 2 {
		t.Errorf("single-entry stats: mean=%v max=%v", one.MeanDensity(), one.NonZeroMax())
	}
}

func TestUpstreamLossReachesVerdicts(t *testing.T) {
	quantum := uint64(1_000_000)
	a := monitoredAuditor(t, quantum)
	a.OnEvents([]trace.Event{{Cycle: 5, Kind: trace.KindBusLock, Actor: 0, Victim: trace.NoContext}})
	cfg := DefaultDetectorConfig(quantum, 8)
	cfg.UpstreamLossRate = 0.25
	rep := NewDetector(a, cfg).Analyze(2 * quantum)
	if len(rep.Contention) == 0 {
		t.Fatal("no verdicts")
	}
	for _, v := range rep.Contention {
		if v.Degradation.EventLossRate != 0.25 || !v.Degradation.Degraded {
			t.Errorf("%v: degradation %+v, want loss 0.25", v.Kind, v.Degradation)
		}
	}
	if rep.Confidence > 0.75 {
		t.Errorf("confidence %v, want <= 0.75", rep.Confidence)
	}
}
