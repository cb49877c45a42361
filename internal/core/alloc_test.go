package core

import (
	"testing"

	"cchunter/internal/auditor"
	"cchunter/internal/pool"
	"cchunter/internal/trace"
)

// allocFixture builds an auditor carrying both analysis workloads: a
// bursty bus-lock record stream and a cache-channel-shaped conflict
// train. mult multiplies the event volume inside the fixed 8-quantum
// observation window, so allocation counts can be compared at equal
// window counts but very different data sizes.
func allocFixture(t *testing.T, quantum uint64, mult int) *auditor.Auditor {
	t.Helper()
	a := auditor.MustNew(auditor.DefaultConfig(quantum))
	if err := a.Monitor(trace.KindBusLock, DeltaTBus); err != nil {
		t.Fatal(err)
	}
	if err := a.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	feedBursts(a, 8, quantum, 500*mult)
	cycle := uint64(0)
	for bit := 0; bit < 8*mult; bit++ {
		for set := 0; set < 128; set++ {
			a.OnEvents([]trace.Event{{Cycle: cycle, Kind: trace.KindConflictMiss,
				Actor: 0, Victim: 1, Unit: uint32(set)}})
			cycle += 300
		}
		for set := 0; set < 128; set++ {
			a.OnEvents([]trace.Event{{Cycle: cycle, Kind: trace.KindConflictMiss,
				Actor: 1, Victim: 0, Unit: uint32(set)}})
			cycle += 300
		}
	}
	return a
}

// TestAnalysisPathAllocationFree pins the allocation-flat analysis
// path: after the detector's pooled workspaces warm up, a full Analyze
// — burst likelihood + k-means recurrence + windowed oscillation over
// a multi-thousand-event conflict train — costs only the verdict
// envelope (report slices, peak lists, merged histograms), bounded by
// a small constant that does NOT grow with the event volume inside the
// observation window. Before the workspace/pool refactor this path
// allocated per histogram bin, per k-means iteration, and per
// autocorrelation lag.
func TestAnalysisPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so pooled workspaces are re-made")
	}
	const ceiling = 64.0
	quantum := uint64(10_000_000)
	end := uint64(8) * quantum
	for _, mult := range []int{1, 4} {
		a := allocFixture(t, quantum, mult)
		d := NewDetector(a, DefaultDetectorConfig(quantum, 8))
		rep := d.Analyze(end) // warm-up sizes every arena
		if !rep.Detected || rep.Oscillation == nil || !rep.Oscillation.Detected {
			t.Fatalf("mult=%d: fixture not detected (%+v) — allocation bound would be vacuous", mult, rep)
		}
		allocs := testing.AllocsPerRun(10, func() {
			d.Analyze(end)
		})
		if allocs > ceiling {
			t.Errorf("mult=%d: Analyze allocates %.0f times per run, want <= %.0f", mult, allocs, ceiling)
		}
		d.Release()
	}
}

// TestOscillationWorkspacePathAllocationFree pins the tightest loop:
// AnalyzeOscillation in a warm workspace, its pooled autocorrelogram
// recycled by the caller, allocates only the per-couple peak lists.
func TestOscillationWorkspacePathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so the pooled autocorrelogram is re-made")
	}
	a := allocFixture(t, 10_000_000, 1)
	train := a.ConflictTrain()
	if train == nil || train.Len() == 0 {
		t.Fatal("fixture produced no conflict train")
	}
	cfg := DefaultDetectorConfig(10_000_000, 8).Oscillation
	ws := BorrowWorkspace()
	defer ws.Release()
	out := AnalyzeOscillation(train, cfg, ws) // warm-up
	pool.PutFloat64s(out.Autocorrelogram)
	allocs := testing.AllocsPerRun(10, func() {
		r := AnalyzeOscillation(train, cfg, ws)
		pool.PutFloat64s(r.Autocorrelogram)
	})
	// The peak list and the couple-count list are the only survivors;
	// everything else (label series, FFT scratch, correlogram copy)
	// comes from the workspace or the pool.
	if allocs > 8 {
		t.Errorf("AnalyzeOscillation allocates %.0f times per run, want <= 8", allocs)
	}
}
