package core

import (
	"math"
	"testing"

	"cchunter/internal/auditor"
	"cchunter/internal/obs"
	"cchunter/internal/trace"
)

// fakeSensor serves fixed integrity counters, so the assembler's
// folding can be checked against hand-computed values — including
// vector-register loss, which the auditor model never produces.
type fakeSensor struct {
	slots    map[trace.Kind]auditor.SlotIntegrity
	conflict auditor.ConflictIntegrity
}

func (f fakeSensor) Integrity(kind trace.Kind) auditor.SlotIntegrity { return f.slots[kind] }
func (f fakeSensor) ConflictIntegrity() auditor.ConflictIntegrity    { return f.conflict }

func contended(kind trace.Kind, detected bool) ContentionVerdict {
	return ContentionVerdict{Kind: kind, Analysis: BurstAnalysis{Detected: detected}}
}

// TestAssemble pins the one verdict assembler that batch Analyze and
// the streaming daemon's Interim and Finalize share: Detected is an OR
// over every verdict, Confidence the weakest verdict's, contention
// Degradation comes from the unit's integrity counters and the
// upstream loss, and the oscillation loss composes upstream and
// vector-register loss as 1-(1-upstream)(1-register).
func TestAssemble(t *testing.T) {
	healthy := fakeSensor{
		slots: map[trace.Kind]auditor.SlotIntegrity{
			trace.KindBusLock:       {Windows: 100},
			trace.KindDivContention: {Windows: 100},
		},
		conflict: auditor.ConflictIntegrity{Recorded: 100},
	}
	cases := []struct {
		name        string
		sensor      fakeSensor
		upstream    float64
		contention  []ContentionVerdict
		osc         *OscillationVerdict
		detected    bool
		oscDetected bool
		confidence  float64
		contLoss    float64 // every contention verdict's EventLossRate
		oscLoss     float64
	}{
		{
			name:   "only the oscillation path detects",
			sensor: healthy,
			contention: []ContentionVerdict{
				contended(trace.KindBusLock, false), contended(trace.KindDivContention, false),
			},
			osc:         &OscillationVerdict{DetectedWindows: 1},
			detected:    true,
			oscDetected: true,
			confidence:  1,
		},
		{
			name:   "only one contention kind detects",
			sensor: healthy,
			contention: []ContentionVerdict{
				contended(trace.KindBusLock, false), contended(trace.KindDivContention, true),
			},
			osc:        &OscillationVerdict{},
			detected:   true,
			confidence: 1,
		},
		{
			name:       "nothing detects, oscillation off",
			sensor:     healthy,
			contention: []ContentionVerdict{contended(trace.KindBusLock, false)},
			confidence: 1,
		},
		{
			name:       "upstream loss reaches every verdict",
			sensor:     healthy,
			upstream:   0.2,
			contention: []ContentionVerdict{contended(trace.KindBusLock, false)},
			osc:        &OscillationVerdict{},
			confidence: 0.8,
			contLoss:   0.2,
			oscLoss:    0.2,
		},
		{
			name: "minimum confidence across verdicts",
			sensor: fakeSensor{
				slots: map[trace.Kind]auditor.SlotIntegrity{
					trace.KindBusLock:       {Windows: 10, AccumSaturations: 1},
					trace.KindDivContention: {Windows: 10, AccumSaturations: 2, HistogramClamped: 3},
				},
				conflict: auditor.ConflictIntegrity{Recorded: 100, ClampedTimestamps: 10},
			},
			contention: []ContentionVerdict{
				contended(trace.KindBusLock, true), contended(trace.KindDivContention, false),
			},
			osc:         &OscillationVerdict{DetectedWindows: 2},
			detected:    true,
			oscDetected: true,
			confidence:  0.5, // the divider's 5/10 saturated windows
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Assemble(tc.sensor, tc.upstream, tc.contention, tc.osc, nil, nil)
			if rep.Detected != tc.detected {
				t.Errorf("Detected = %v, want %v", rep.Detected, tc.detected)
			}
			if math.Abs(rep.Confidence-tc.confidence) > 1e-12 {
				t.Errorf("Confidence = %v, want %v", rep.Confidence, tc.confidence)
			}
			if len(rep.Contention) != len(tc.contention) {
				t.Fatalf("%d contention verdicts, want %d", len(rep.Contention), len(tc.contention))
			}
			for _, c := range rep.Contention {
				integ := tc.sensor.slots[c.Kind]
				want := degradation(tc.upstream, integ.SaturationRate(), 0, integ.Windows)
				if c.Degradation != want {
					t.Errorf("%v: degradation %+v, want %+v", c.Kind, c.Degradation, want)
				}
				if c.Degradation.EventLossRate != tc.contLoss {
					t.Errorf("%v: loss %v, want %v", c.Kind, c.Degradation.EventLossRate, tc.contLoss)
				}
			}
			if tc.osc == nil {
				if rep.Oscillation != nil {
					t.Fatal("oscillation verdict appeared without conflict monitoring")
				}
				return
			}
			v := rep.Oscillation
			if v.Detected != tc.oscDetected {
				t.Errorf("oscillation Detected = %v, want %v", v.Detected, tc.oscDetected)
			}
			if math.Abs(v.Degradation.EventLossRate-tc.oscLoss) > 1e-12 {
				t.Errorf("oscillation loss = %v, want %v", v.Degradation.EventLossRate, tc.oscLoss)
			}
		})
	}
}

// TestAssemblePublishesWorkspaceTallies: with a registry, the
// assembler publishes the workspace's FFT-vs-naive autocorrelation
// tallies and attaches a snapshot; without one, the report carries no
// metrics.
func TestAssemblePublishesWorkspaceTallies(t *testing.T) {
	ws := BorrowWorkspace()
	defer ws.Release()
	AnalyzeOscillation(channelTrain(4, 64, 100), DefaultOscillationConfig(8), ws)
	sensor := fakeSensor{conflict: auditor.ConflictIntegrity{Recorded: 1}}
	if rep := Assemble(sensor, 0, nil, &OscillationVerdict{}, ws, nil); rep.Metrics != nil {
		t.Error("report carries metrics without a registry")
	}
	reg := obs.NewRegistry()
	rep := Assemble(sensor, 0, nil, &OscillationVerdict{}, ws, reg)
	if rep.Metrics == nil {
		t.Fatal("no metrics snapshot attached")
	}
	fft, naive := ws.acf.PathCounts()
	if fft+naive == 0 {
		t.Fatal("analyses left no path tallies; the check would be vacuous")
	}
	if got := rep.Metrics.Gauges["stats.autocorr.fft"]; got != int64(fft) {
		t.Errorf("stats.autocorr.fft = %d, want %d", got, fft)
	}
	if got := rep.Metrics.Gauges["stats.autocorr.naive"]; got != int64(naive) {
		t.Errorf("stats.autocorr.naive = %d, want %d", got, naive)
	}
}
