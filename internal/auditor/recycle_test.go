package auditor

import (
	"testing"

	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// TestRecycledHistogramsStartZeroed: histograms handed back dirty —
// mass in every bin, clamped windows, invalid observations — come out
// of the next auditor's quantum rolls exactly like fresh ones. Without
// the race detector at least one roll must reuse a recycled buffer, so
// the check is not vacuous.
func TestRecycledHistogramsStartZeroed(t *testing.T) {
	const quantum, deltaT, bins = 1000, 100, 8
	cfg := Config{HistogramBins: bins, VectorBytes: 8, QuantumCycles: quantum, Privileged: true}
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		dirty := MustNew(cfg)
		if err := dirty.Monitor(trace.KindBusLock, deltaT); err != nil {
			t.Fatal(err)
		}
		// 50 events in one Δt window clamp into the top bin.
		for i := uint64(0); i < 50; i++ {
			dirty.OnEvent(busEvent(10 + i))
		}
		dirty.Flush(4 * quantum)
		recs := dirty.DrainHistograms(trace.KindBusLock, nil)
		recycled := map[*stats.Histogram]bool{}
		for _, rec := range recs {
			rec.Hist.Add(-1) // an invalid observation
			rec.Hist.AddN(3, 7)
			recycled[rec.Hist] = true
			dirty.RecycleHistogram(rec.Hist)
		}
		if recs[0].Hist.Clamped() == 0 || recs[0].Hist.Invalid() == 0 {
			t.Fatal("fixture did not dirty the clamped and invalid tallies")
		}
		dirty.Release()

		clean := MustNew(cfg)
		if err := clean.Monitor(trace.KindBusLock, deltaT); err != nil {
			t.Fatal(err)
		}
		clean.Flush(3 * quantum) // three quiet quanta
		got := clean.Histograms(trace.KindBusLock)
		if len(got) != 3 {
			t.Fatalf("recorded %d quanta, want 3", len(got))
		}
		for _, rec := range got {
			if rec.Hist.Bin(0) != quantum/deltaT || rec.Hist.Total() != quantum/deltaT ||
				rec.Hist.Clamped() != 0 || rec.Hist.Invalid() != 0 || rec.Hist.NumBins() != bins {
				t.Fatalf("quantum %d: recycled histogram not fresh: %v clamped %d invalid %d",
					rec.Quantum, rec.Hist, rec.Hist.Clamped(), rec.Hist.Invalid())
			}
			reused = reused || recycled[rec.Hist]
		}
		if in := clean.Integrity(trace.KindBusLock); in.HistogramClamped != 0 {
			t.Errorf("clean auditor reports %d clamped windows", in.HistogramClamped)
		}
	}
	if !reused && !raceEnabled {
		t.Error("no quantum roll reused a recycled histogram")
	}
}

// TestReleasedCapturePathStartsFresh: a released auditor's conflict
// capture path — train grown and trimmed, timestamps clamped, dedup
// comparator primed — is taken by the next MonitorConflicts in the
// state of a new one.
func TestReleasedCapturePathStartsFresh(t *testing.T) {
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		dirty := MustNew(DefaultConfig(1000))
		if err := dirty.MonitorConflicts(); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 600; i++ {
			dirty.OnEvent(confEvent(100+i, uint32(i), 0, 1))
		}
		last := confEvent(50, 7, 1, 0) // runs backwards: clamped
		dirty.OnEvent(last)
		dirty.ForceDrainConflicts()
		dirty.TrimConflicts(300)
		if in := dirty.ConflictIntegrity(); in.ClampedTimestamps == 0 || in.Recorded == 0 {
			t.Fatalf("fixture did not dirty the capture path: %+v", in)
		}
		old := dirty.osc
		dirty.Release()

		clean := MustNew(DefaultConfig(1000))
		if err := clean.MonitorConflicts(); err != nil {
			t.Fatal(err)
		}
		reused = clean.osc == old
		if n := clean.ConflictTrain().Len(); n != 0 {
			t.Fatalf("recycled train holds %d events", n)
		}
		if in := clean.ConflictIntegrity(); in != (ConflictIntegrity{}) {
			t.Fatalf("recycled capture path reports %+v", in)
		}
		// The dedup comparator starts empty: the dirty auditor's last
		// entry repeated is a new entry, not a run.
		clean.OnEvent(last)
		clean.Flush(1000)
		if got := clean.ConflictTrain().Events(); len(got) != 1 || got[0] != last {
			t.Fatalf("first event after recycling recorded as %v, want [%v]", got, last)
		}
		if cap(clean.osc.active) < clean.osc.capacity {
			t.Errorf("vector register capacity %d below %d", cap(clean.osc.active), clean.osc.capacity)
		}
	}
	if !reused && !raceEnabled {
		t.Error("MonitorConflicts never took the released capture path")
	}
}
