package auditor

import (
	"math"
	"testing"

	"cchunter/internal/trace"
)

func busEvent(cycle uint64) trace.Event {
	return trace.Event{Cycle: cycle, Kind: trace.KindBusLock, Actor: 0, Victim: trace.NoContext}
}

func confEvent(cycle uint64, set uint32, actor, victim uint8) trace.Event {
	return trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: actor, Victim: victim, Unit: set}
}

func TestMonitorSlots(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	if err := a.Monitor(trace.KindBusLock, 100); err == nil {
		t.Error("duplicate kind should fail")
	}
	if err := a.Monitor(trace.KindDivContention, 50); err != nil {
		t.Fatal(err)
	}
	// Both slots used; conflict monitoring is separate and still
	// available.
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	if a.DeltaT(trace.KindBusLock) != 100 || a.DeltaT(trace.KindDivContention) != 50 {
		t.Error("DeltaT wrong")
	}
	if a.DeltaT(trace.KindConflictMiss) != 0 {
		t.Error("conflict kind has no deltaT slot")
	}
}

func TestMonitorErrors(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindConflictMiss, 10); err == nil {
		t.Error("conflict kind must be rejected by Monitor")
	}
	if err := a.Monitor(trace.KindBusLock, 0); err == nil {
		t.Error("zero deltaT must be rejected")
	}
	unpriv := MustNew(Config{HistogramBins: 8, VectorBytes: 8, QuantumCycles: 100, Privileged: false})
	if err := unpriv.Monitor(trace.KindBusLock, 10); err != ErrNotPrivileged {
		t.Errorf("unprivileged Monitor error = %v", err)
	}
	if err := unpriv.MonitorConflicts(); err != ErrNotPrivileged {
		t.Errorf("unprivileged MonitorConflicts error = %v", err)
	}
}

func TestDensityHistogramAccumulation(t *testing.T) {
	a := MustNew(DefaultConfig(1000)) // quantum 1000, deltaT 100
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	// Window [0,100): 3 events; [100,200): 1; [200,300): 0; then quiet.
	for _, c := range []uint64{10, 20, 30, 150} {
		a.OnEvents([]trace.Event{busEvent(c)})
	}
	a.Flush(1000) // close the quantum
	recs := a.Histograms(trace.KindBusLock)
	if len(recs) != 1 {
		t.Fatalf("quantum records = %d, want 1", len(recs))
	}
	h := recs[0].Hist
	if h.Bin(3) != 1 || h.Bin(1) != 1 {
		t.Errorf("histogram: %v", h.Bins())
	}
	if h.Bin(0) != 8 {
		t.Errorf("quiet windows in bin0 = %d, want 8", h.Bin(0))
	}
	if h.Total() != 10 {
		t.Errorf("windows per quantum = %d, want 10", h.Total())
	}
}

func TestQuantumRollover(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	a.OnEvents([]trace.Event{busEvent(50)})   // quantum 0
	a.OnEvents([]trace.Event{busEvent(1050)}) // quantum 1
	a.Flush(3000)
	recs := a.Histograms(trace.KindBusLock)
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0].Quantum != 0 || recs[1].Quantum != 1 || recs[2].Quantum != 2 {
		t.Errorf("quantum indices: %v %v %v", recs[0].Quantum, recs[1].Quantum, recs[2].Quantum)
	}
	if recs[0].Hist.TotalFrom(1) != 1 || recs[1].Hist.TotalFrom(1) != 1 || recs[2].Hist.TotalFrom(1) != 0 {
		t.Error("per-quantum event placement wrong")
	}
}

func TestMergedHistogram(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	a.OnEvents([]trace.Event{busEvent(10)})
	a.OnEvents([]trace.Event{busEvent(1010)})
	a.Flush(2000)
	m := a.MergedHistogram(trace.KindBusLock)
	if m.Bin(1) != 2 {
		t.Errorf("merged bin1 = %d, want 2", m.Bin(1))
	}
	if a.MergedHistogram(trace.KindDivContention) != nil {
		t.Error("unmonitored kind should give nil")
	}
}

func TestOscillatorDedupPerSetRun(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	// An 8-way fill of set 5 by context 0 evicting context 1's blocks:
	// one recorded entry.
	for i := uint64(0); i < 8; i++ {
		a.OnEvents([]trace.Event{confEvent(100+i, 5, 0, 1)})
	}
	// Then the reverse direction in the same set: a new entry.
	for i := uint64(0); i < 8; i++ {
		a.OnEvents([]trace.Event{confEvent(200+i, 5, 1, 0)})
	}
	// A different set: a new entry even with the same pair.
	a.OnEvents([]trace.Event{confEvent(300, 6, 1, 0)})
	a.Flush(1000)
	tr := a.ConflictTrain()
	if tr.Len() != 3 {
		t.Fatalf("train len = %d, want 3", tr.Len())
	}
	if tr.At(0).Actor != 0 || tr.At(1).Actor != 1 || tr.At(2).Unit != 6 {
		t.Errorf("train: %+v", tr.Events())
	}
}

func TestOscillatorVectorRegisterSwap(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.VectorBytes = 4
	a := MustNew(cfg)
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	// 10 distinct entries with capacity 4: registers swap, nothing is
	// lost.
	for i := 0; i < 10; i++ {
		a.OnEvents([]trace.Event{confEvent(uint64(i), uint32(i), 0, 1)})
	}
	a.Flush(1000)
	if a.ConflictTrain().Len() != 10 {
		t.Errorf("train len = %d, want 10", a.ConflictTrain().Len())
	}
}

func TestConflictTrainNilWithoutMonitoring(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if a.ConflictTrain() != nil {
		t.Error("train should be nil before MonitorConflicts")
	}
	a.OnEvents([]trace.Event{confEvent(1, 0, 0, 1)}) // ignored, no crash
	if in := a.ConflictIntegrity(); in != (ConflictIntegrity{}) {
		t.Errorf("conflict integrity %+v without monitoring, want zero", in)
	}
}

func TestEventsForUnmonitoredKindIgnored(t *testing.T) {
	a := MustNew(DefaultConfig(1000))
	if err := a.Monitor(trace.KindBusLock, 100); err != nil {
		t.Fatal(err)
	}
	a.OnEvents([]trace.Event{{Cycle: 5, Kind: trace.KindDivContention, Actor: 0, Victim: 1}})
	a.Flush(1000)
	if a.MergedHistogram(trace.KindBusLock).TotalFrom(1) != 0 {
		t.Error("div event leaked into bus histogram")
	}
}

func TestTableICalibration(t *testing.T) {
	// The analytic model must reproduce Table I at the paper's sizing.
	m := EstimateCost(DefaultSizing())
	checks := []struct {
		name          string
		got           Cost
		area, pw, lat float64
	}{
		{"histogram", m.HistogramBuffers, 0.0028, 2.8, 0.17},
		{"registers", m.Registers, 0.0011, 0.8, 0.17},
		{"detector", m.ConflictMissDetector, 0.004, 5.4, 0.12},
	}
	for _, c := range checks {
		if math.Abs(c.got.AreaMM2-c.area)/c.area > 0.02 {
			t.Errorf("%s area = %v, want %v", c.name, c.got.AreaMM2, c.area)
		}
		if math.Abs(c.got.PowerMW-c.pw)/c.pw > 0.02 {
			t.Errorf("%s power = %v, want %v", c.name, c.got.PowerMW, c.pw)
		}
		if math.Abs(c.got.LatencyNS-c.lat)/c.lat > 0.05 {
			t.Errorf("%s latency = %v, want %v", c.name, c.got.LatencyNS, c.lat)
		}
	}
}

func TestCostScalesWithSize(t *testing.T) {
	small := EstimateCost(CostSizing{HistogramBins: 64, HistogramEntryBits: 16, VectorBytes: 64, CacheBlocks: 2048})
	big := EstimateCost(DefaultSizing())
	if small.HistogramBuffers.AreaMM2 >= big.HistogramBuffers.AreaMM2 {
		t.Error("smaller buffers should be smaller")
	}
	if small.ConflictMissDetector.PowerMW >= big.ConflictMissDetector.PowerMW {
		t.Error("smaller detector should burn less power")
	}
	if small.HistogramBuffers.LatencyNS >= big.HistogramBuffers.LatencyNS {
		t.Error("smaller structures should be faster")
	}
	zero := EstimateCost(CostSizing{})
	if zero.HistogramBuffers.AreaMM2 != 0 {
		t.Error("zero sizing should cost nothing for the buffers")
	}
}

func TestAccumulatorSaturates(t *testing.T) {
	a := MustNew(DefaultConfig(1_000_000))
	if err := a.Monitor(trace.KindBusLock, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70000; i++ {
		a.OnEvents([]trace.Event{busEvent(10)})
	}
	a.Flush(1_000_000)
	// 70000 events saturate the 16-bit accumulator, then clamp into
	// the histogram's top bin; no panic, no wraparound to small bins.
	h := a.MergedHistogram(trace.KindBusLock)
	if h.Bin(h.NumBins()-1) != 1 {
		t.Errorf("saturated window not in top bin: %v", h.String())
	}
}
