package cchunter

import (
	"runtime"
	"testing"
	"time"
)

// testQuantum keeps unit-test scenarios fast: a 1 ms quantum instead
// of the paper's 100 ms. Detection parameters (Δt, thresholds) are
// absolute-cycle quantities and unaffected.
const testQuantum = 2_500_000

func TestBusScenarioDetectedAndDecoded(t *testing.T) {
	msg := RandomMessage(16, 3)
	res, err := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       msg,
		QuantumCycles: testQuantum,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != 0 {
		t.Errorf("bus channel bit errors = %d of %d decoded", res.BitErrors, len(res.Decoded))
	}
	if !res.Report.Detected {
		t.Errorf("bus channel not detected:\n%s", res.Report)
	}
	var busVerdict *ContentionVerdict
	for i := range res.Report.Contention {
		if res.Report.Contention[i].Kind == EventBusLock {
			busVerdict = &res.Report.Contention[i]
		}
	}
	if busVerdict == nil || !busVerdict.Analysis.Detected {
		t.Fatalf("bus verdict missing or negative: %+v", busVerdict)
	}
	if busVerdict.Analysis.LikelihoodRatio < 0.9 {
		t.Errorf("bus LR = %v, want ≥0.9 as in the paper", busVerdict.Analysis.LikelihoodRatio)
	}
	if res.BusHistogram.TotalFrom(1) == 0 {
		t.Error("bus histogram empty")
	}
	if len(res.PerBitSeries) == 0 {
		t.Error("per-bit latency series missing")
	}
}

func TestDividerScenarioDetected(t *testing.T) {
	msg := RandomMessage(12, 5)
	res, err := Scenario{
		Channel:       ChannelIntegerDivider,
		BandwidthBPS:  1000,
		Message:       msg,
		QuantumCycles: testQuantum,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != 0 {
		t.Errorf("divider bit errors = %d", res.BitErrors)
	}
	if !res.Report.Detected {
		t.Errorf("divider channel not detected:\n%s", res.Report)
	}
	var v *ContentionVerdict
	for i := range res.Report.Contention {
		if res.Report.Contention[i].Kind == EventDivContention {
			v = &res.Report.Contention[i]
		}
	}
	if v == nil || !v.Analysis.Detected {
		t.Fatalf("divider verdict missing or negative")
	}
	if v.Analysis.LikelihoodRatio < 0.9 {
		t.Errorf("divider LR = %v", v.Analysis.LikelihoodRatio)
	}
	// The burst distribution sits at high densities (paper: bins
	// 84–105 for Δt=500).
	if v.Analysis.BurstMean < 40 {
		t.Errorf("divider burst mean %v too low", v.Analysis.BurstMean)
	}
}

func TestCacheScenarioDetected(t *testing.T) {
	msg := RandomMessage(10, 7)
	// A 25M-cycle quantum holds 10 bits at 1000 bps; the per-quantum
	// oscillation analysis needs several periods per window, just as
	// the paper's 0.1 s quantum holds ~100 bits.
	res, err := Scenario{
		Channel:       ChannelSharedCache,
		BandwidthBPS:  1000,
		Message:       msg,
		CacheSets:     256,
		QuantumCycles: 25_000_000,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != 0 {
		t.Errorf("cache bit errors = %d (ratios %v)", res.BitErrors, res.PerBitSeries)
	}
	osc := res.Report.Oscillation
	if osc == nil || !osc.Detected {
		t.Fatalf("cache channel not detected:\n%s", res.Report)
	}
	if osc.Best.FundamentalLag < 220 || osc.Best.FundamentalLag > 310 {
		t.Errorf("fundamental lag = %d, want ≈256", osc.Best.FundamentalLag)
	}
	if osc.Best.PeakValue < 0.7 {
		t.Errorf("peak = %v, want ≥0.7", osc.Best.PeakValue)
	}
	if res.ConflictTrain.Len() == 0 {
		t.Error("conflict train empty")
	}
}

func TestBenignScenarioNoFalseAlarm(t *testing.T) {
	res, err := Scenario{
		Channel:        ChannelNone,
		Workloads:      []string{"gobmk", "sjeng", "bzip2", "h264ref"},
		DurationQuanta: 8,
		QuantumCycles:  testQuantum,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Detected {
		t.Errorf("false alarm on benign workloads:\n%s", res.Report)
	}
	if res.Sent != nil || res.Decoded != nil {
		t.Error("benign scenario should carry no message")
	}
}

func TestScenarioWithInterference(t *testing.T) {
	// The threat model's environment: channel plus other active
	// processes. Detection must survive the noise.
	msg := RandomMessage(12, 11)
	res, err := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       msg,
		Workloads:     []string{"mailserver", "webserver"},
		QuantumCycles: testQuantum,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Detected {
		t.Errorf("bus channel under interference not detected:\n%s", res.Report)
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := (Scenario{Channel: "quantum-entanglement"}).Run(); err == nil {
		t.Error("unknown channel should error")
	}
	if _, err := (Scenario{Channel: ChannelNone, Workloads: []string{"doom"}, DurationQuanta: 1, QuantumCycles: testQuantum}).Run(); err == nil {
		t.Error("unknown workload should error")
	}
	if _, err := (Scenario{BandwidthBPS: -2}).Run(); err == nil {
		t.Error("negative bandwidth should error")
	}
	tooMany := make([]string, 10)
	for i := range tooMany {
		tooMany[i] = "stream"
	}
	if _, err := (Scenario{Channel: ChannelNone, Workloads: tooMany, DurationQuanta: 1, QuantumCycles: testQuantum}).Run(); err == nil {
		t.Error("overcommitted contexts should error")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Scenario{
			Channel:       ChannelMemoryBus,
			BandwidthBPS:  1000,
			Message:       RandomMessage(8, 2),
			QuantumCycles: testQuantum,
			Seed:          9,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BusHistogram.String() != b.BusHistogram.String() {
		t.Error("histograms differ between identical runs")
	}
	if len(a.Decoded) != len(b.Decoded) {
		t.Fatal("decoded lengths differ")
	}
	for i := range a.Decoded {
		if a.Decoded[i] != b.Decoded[i] {
			t.Fatal("decoded bits differ")
		}
	}
}

func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	if len(names) < 8 {
		t.Errorf("workload list too short: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestEstimateAuditorCost(t *testing.T) {
	m := EstimateAuditorCost()
	if m.HistogramBuffers.AreaMM2 <= 0 || m.Registers.PowerMW <= 0 || m.ConflictMissDetector.LatencyNS <= 0 {
		t.Errorf("cost model degenerate: %+v", m)
	}
}

func TestUint64Message(t *testing.T) {
	bits := Uint64Message(1)
	if len(bits) != 64 || bits[63] != 1 || bits[0] != 0 {
		t.Error("Uint64Message wrong")
	}
}

func TestRecordRaw(t *testing.T) {
	res, err := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       RandomMessage(8, 4),
		QuantumCycles: testQuantum,
		RecordRaw:     true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RawTrain == nil || res.RawTrain.Len() == 0 {
		t.Error("raw train missing")
	}
}

func TestDetectorOverrides(t *testing.T) {
	// An absurdly high likelihood threshold suppresses the bus verdict.
	res, err := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       RandomMessage(8, 3),
		QuantumCycles: testQuantum,
		Detector:      &DetectorOverrides{LikelihoodThreshold: 0.999999},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Report.Contention {
		if v.Kind == EventBusLock && v.Analysis.HasBursts && v.Analysis.LikelihoodRatio < 0.999999 {
			t.Errorf("override ignored: %+v", v.Analysis)
		}
	}
	// Window clipping override.
	res, err = Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       RandomMessage(8, 3),
		QuantumCycles: testQuantum,
		Detector:      &DetectorOverrides{WindowQuanta: 2},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Report.Contention {
		if v.Kind == EventBusLock && v.Analysis.QuantaAnalyzed > 2 {
			t.Errorf("window override ignored: analyzed %d quanta", v.Analysis.QuantaAnalyzed)
		}
	}
}

func TestMitigationValidation(t *testing.T) {
	if _, err := (Scenario{
		Channel:       ChannelMemoryBus,
		Message:       RandomMessage(4, 1),
		QuantumCycles: testQuantum,
		Mitigation:    "prayer",
	}).Run(); err == nil {
		t.Error("unknown mitigation should error")
	}
}

func TestMitigationNeutralizesBusChannel(t *testing.T) {
	msg := RandomMessage(16, 5)
	base, err := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       msg,
		QuantumCycles: testQuantum,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	defended, err := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       msg,
		QuantumCycles: testQuantum,
		Mitigation:    "buslimit",
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if base.BitErrors != 0 {
		t.Fatalf("baseline has %d errors", base.BitErrors)
	}
	if rate := float64(defended.BitErrors) / float64(len(defended.Decoded)); rate < 0.25 {
		t.Errorf("bus limiter left the channel usable: error rate %.2f", rate)
	}
}

func TestMitigationFlipsDividerVerdict(t *testing.T) {
	// The strongest end-to-end claim a mitigation can make: the same
	// channel configuration that trips the detector runs clean under
	// the defense. TDM makes cross-context divider contention
	// impossible, so the verdict itself must flip, not just degrade.
	msg := RandomMessage(12, 5)
	base := Scenario{
		Channel:       ChannelIntegerDivider,
		BandwidthBPS:  1000,
		Message:       msg,
		QuantumCycles: testQuantum,
	}
	unmitigated, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !unmitigated.Report.Detected {
		t.Fatalf("baseline divider channel not detected:\n%s", unmitigated.Report)
	}
	defended := base
	defended.Mitigation = "tdm"
	mitigated, err := defended.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mitigated.Report.Detected {
		t.Errorf("verdict did not flip under tdm:\n%s", mitigated.Report)
	}
}

func TestEvasionNoiseRaisesErrors(t *testing.T) {
	msg := RandomMessage(16, 5)
	res, err := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       msg,
		QuantumCycles: testQuantum,
		EvasionNoise:  1.0,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors == 0 {
		t.Error("full camouflage should corrupt the spy's decoding")
	}
	if !res.Report.Detected {
		t.Errorf("camouflaged channel escaped detection:\n%s", res.Report)
	}
}

// TestScenarioRunLeavesNoGoroutines checks that Scenario.Run returns
// with every goroutine it started finished: the simulator's program
// drivers, the watchdog's supervised analysis, and anything the
// streaming detector or flight recorder spins up. Each goldenCases
// scenario runs plain, streaming, supervised and flight-recorded, and
// the goroutine count must settle back to where it started.
func TestScenarioRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	modes := []struct {
		name string
		set  func(*Scenario)
	}{
		{"plain", func(*Scenario) {}},
		{"stream", func(sc *Scenario) { sc.Stream = true }},
		{"watchdog", func(sc *Scenario) { sc.Watchdog = time.Minute }},
		{"flight", func(sc *Scenario) { sc.FlightEvents = 64 }},
	}
	for _, tc := range goldenCases() {
		for _, m := range modes {
			sc := tc.sc
			m.set(&sc)
			if _, err := sc.Run(); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, m.name, err)
			}
		}
	}
	// Finished goroutines are reaped asynchronously; give the
	// scheduler a bounded window to retire them.
	deadline := time.Now().Add(5 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines: %d before, %d after\n%s", before, after, buf)
	}
}
