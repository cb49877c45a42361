package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cchunter/internal/auditor"
	"cchunter/internal/trace"
)

// feedBursts injects n bursts of `locks` bus-lock events, one burst at
// the start of each quantum.
func feedBursts(a *auditor.Auditor, quanta int, quantum uint64, locks int) {
	for q := 0; q < quanta; q++ {
		base := uint64(q) * quantum
		for i := 0; i < locks; i++ {
			a.OnEvents([]trace.Event{{
				Cycle: base + uint64(i)*2_000, // 50 per Δt=100k window
				Kind:  trace.KindBusLock,
				Actor: 1, Victim: trace.NoContext,
			}})
		}
	}
}

func TestDetectorEndToEndBusChannel(t *testing.T) {
	quantum := uint64(10_000_000)
	a := auditor.MustNew(auditor.DefaultConfig(quantum))
	if err := a.Monitor(trace.KindBusLock, DeltaTBus); err != nil {
		t.Fatal(err)
	}
	feedBursts(a, 8, quantum, 500)
	d := NewDetector(a, DefaultDetectorConfig(quantum, 8))
	rep := d.Analyze(8 * quantum)
	if len(rep.Contention) != 1 {
		t.Fatalf("contention verdicts = %d", len(rep.Contention))
	}
	v := rep.Contention[0]
	if v.Kind != trace.KindBusLock {
		t.Errorf("kind = %v", v.Kind)
	}
	if !v.Analysis.Detected || !rep.Detected {
		t.Errorf("bus channel not detected: %+v", v.Analysis)
	}
	if !strings.Contains(rep.String(), "detected=true") {
		t.Errorf("report string: %q", rep.String())
	}
}

func TestDetectorQuietSystemNoAlarm(t *testing.T) {
	quantum := uint64(1_000_000)
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
	// Sparse random activity only.
	for i := uint64(0); i < 50; i++ {
		a.OnEvents([]trace.Event{{Cycle: i * 100_000, Kind: trace.KindBusLock, Actor: 2, Victim: trace.NoContext}})
	}
	d := NewDetector(a, DefaultDetectorConfig(quantum, 8))
	rep := d.Analyze(8 * quantum)
	if rep.Detected {
		t.Errorf("quiet system raised an alarm:\n%s", rep)
	}
	if rep.Oscillation == nil {
		t.Error("oscillation verdict missing despite monitoring")
	}
}

func TestDetectorOscillationPath(t *testing.T) {
	quantum := uint64(1_000_000)
	a := auditor.MustNew(auditor.DefaultConfig(quantum))
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	// Feed a channel-shaped conflict pattern through the auditor
	// (8-way runs per set: the vector register dedups them).
	cycle := uint64(0)
	for bit := 0; bit < 8; bit++ {
		for set := 0; set < 128; set++ {
			for w := 0; w < 8; w++ {
				a.OnEvents([]trace.Event{{Cycle: cycle, Kind: trace.KindConflictMiss,
					Actor: 0, Victim: 1, Unit: uint32(set)}})
			}
			cycle += 300
		}
		for set := 0; set < 128; set++ {
			for w := 0; w < 8; w++ {
				a.OnEvents([]trace.Event{{Cycle: cycle, Kind: trace.KindConflictMiss,
					Actor: 1, Victim: 0, Unit: uint32(set)}})
			}
			cycle += 300
		}
	}
	d := NewDetector(a, DefaultDetectorConfig(quantum, 8))
	rep := d.Analyze(quantum)
	if rep.Oscillation == nil || !rep.Oscillation.Detected {
		t.Fatalf("oscillation not detected: %+v", rep.Oscillation)
	}
	best := rep.Oscillation.Best
	if best.FundamentalLag < 220 || best.FundamentalLag > 290 {
		t.Errorf("fundamental = %d, want ≈256 (sets used)", best.FundamentalLag)
	}
	if !rep.Detected {
		t.Error("report-level verdict missing")
	}
}

func TestDetectorObservationDivisor(t *testing.T) {
	quantum := uint64(1_000_000)
	a := auditor.MustNew(auditor.DefaultConfig(quantum))
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	cycle := uint64(0)
	for bit := 0; bit < 4; bit++ {
		for set := 0; set < 64; set++ {
			a.OnEvents([]trace.Event{{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 0, Victim: 1, Unit: uint32(set)}})
			cycle += 100
		}
		for set := 0; set < 64; set++ {
			a.OnEvents([]trace.Event{{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 1, Victim: 0, Unit: uint32(set)}})
			cycle += 100
		}
	}
	cfg := DefaultDetectorConfig(quantum, 8)
	cfg.ObservationDivisor = 4
	d := NewDetector(a, cfg)
	rep := d.Analyze(quantum)
	if rep.Oscillation == nil {
		t.Fatal("no oscillation verdict")
	}
	if len(rep.Oscillation.Windows) == 0 {
		t.Fatal("divisor produced no windows")
	}
}

func TestDetectorConstructorPanics(t *testing.T) {
	a := auditor.MustNew(auditor.DefaultConfig(1000))
	for name, f := range map[string]func(){
		"nil auditor": func() { NewDetector(nil, DefaultDetectorConfig(1000, 8)) },
		"zero quantum": func() {
			cfg := DefaultDetectorConfig(1000, 8)
			cfg.QuantumCycles = 0
			NewDetector(a, cfg)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDetectorNoMonitorsEmptyReport(t *testing.T) {
	a := auditor.MustNew(auditor.DefaultConfig(1000))
	d := NewDetector(a, DefaultDetectorConfig(1000, 8))
	rep := d.Analyze(5000)
	if len(rep.Contention) != 0 || rep.Oscillation != nil || rep.Detected {
		t.Errorf("unmonitored system report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "detected=false") {
		t.Errorf("report string: %q", rep.String())
	}
}

// TestAnalyzeContextCancelled: once the context is done — a watchdog
// fired — the window loop stops and Analyze hands back a degraded
// placeholder instead of a verdict; the detector stays usable.
func TestAnalyzeContextCancelled(t *testing.T) {
	quantum := uint64(10_000_000)
	end := 8 * quantum
	d := NewDetector(allocFixture(t, quantum, 1), DefaultDetectorConfig(quantum, 8))
	defer d.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := d.AnalyzeContext(ctx, end)
	if !rep.Failed() || rep.Detected || rep.Confidence != 0 {
		t.Errorf("cancelled analysis rendered %+v, want a degraded placeholder", rep)
	}
	if rep := d.Analyze(end); rep.Failed() || !rep.Detected {
		t.Errorf("analysis after a cancelled one: %+v, want the detected verdict", rep)
	}
}

// TestWindowLoopStopsBetweenWindows: a context cancelled while one
// window is folded stops the loop before the next window.
func TestWindowLoopStopsBetweenWindows(t *testing.T) {
	ws := BorrowWorkspace()
	defer ws.Release()
	tr := channelTrain(8, 128, 100) // 204,800 cycles of events
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	folded := 0
	err := AnalyzeOscillationWindows(ctx, tr, 0, 204_800, 25_600, DefaultOscillationConfig(), ws,
		func(uint64, OscillationAnalysis) {
			folded++
			cancel()
		})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if folded != 1 {
		t.Errorf("%d windows folded, want 1", folded)
	}
}
