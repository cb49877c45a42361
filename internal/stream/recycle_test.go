package stream

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"cchunter/internal/core"
	"cchunter/internal/trace"
)

const recycleQuanta = 8

// oscTrain builds conflict misses that oscillate between contexts 0
// and 1 with a per-quantum half-period, a quarter of them replaced by
// noise from other contexts, so every quantum's window analysis owns a
// full-length correlogram.
func oscTrain(seed uint64, quanta int) []trace.Event {
	const gap = 100
	rng := splitmix(seed)
	var events []trace.Event
	for i := 0; uint64(i+1)*gap < uint64(quanta)*testQuantum; i++ {
		cycle := uint64(i+1) * gap
		phase := 5 + int(cycle/testQuantum)%4
		e := trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Unit: uint32(i % 256)}
		if r := rng.next(); r%4 == 0 {
			e.Actor, e.Victim = uint8(2+(r>>8)%4), uint8(2+(r>>16)%4)
		} else if (i/phase)%2 == 1 {
			e.Actor = 1
		} else {
			e.Victim = 1
		}
		events = append(events, e)
	}
	return events
}

// runDetector streams a train through a fresh detector and returns it
// with its final Report, unreleased.
func runDetector(t *testing.T, seed uint64, retain int) (*Detector, core.Report) {
	t.Helper()
	d := New(newAuditor(t, testQuantum), Config{Detector: core.DefaultDetectorConfig(testQuantum, 4), RetainWindows: retain})
	d.OnEvents(oscTrain(seed, recycleQuanta))
	rep := d.Finalize(recycleQuanta * testQuantum)
	if rep.Oscillation == nil || len(rep.Oscillation.Windows) == 0 || len(rep.Oscillation.Best.Autocorrelogram) == 0 {
		t.Fatal("fixture produced no correlograms")
	}
	return d, rep
}

// TestReleasedAnalysesAreReused: a released detector's correlograms
// and analyses slice come back to the next detector, and the recycled
// run renders the same Report as the first. Without the race detector
// at least one correlogram must be reused, so the check is not vacuous.
func TestReleasedAnalysesAreReused(t *testing.T) {
	reusedAcf, reusedSlice := false, false
	for attempt := 0; attempt < 20 && !(reusedAcf && reusedSlice); attempt++ {
		d, rep := runDetector(t, 1, 0)
		want := marshalVerdict(t, rep)
		released := map[*float64]bool{}
		for _, a := range rep.Oscillation.Windows {
			if len(a.Autocorrelogram) > 0 {
				released[&a.Autocorrelogram[0]] = true
			}
		}
		windows := &rep.Oscillation.Windows[0]
		d.Release()

		next, again := runDetector(t, 1, 0)
		if got := marshalVerdict(t, again); !bytes.Equal(got, want) {
			t.Fatalf("recycled run differs\nfirst:    %.300s\nrecycled: %.300s", want, got)
		}
		for _, a := range again.Oscillation.Windows {
			reusedAcf = reusedAcf || (len(a.Autocorrelogram) > 0 && released[&a.Autocorrelogram[0]])
		}
		reusedSlice = reusedSlice || &again.Oscillation.Windows[0] == windows
		next.Release()
	}
	if !raceEnabled {
		if !reusedAcf {
			t.Error("no window analysis reused a released correlogram")
		}
		if !reusedSlice {
			t.Error("New never took a released analyses slice")
		}
	}
}

// TestRecycledDetectorWithoutWindowsMatchesBatch: a detector that
// closes no observation window after another one released its analyses
// still renders the batch verdict byte for byte, Windows null and all.
func TestRecycledDetectorWithoutWindowsMatchesBatch(t *testing.T) {
	var quiet []trace.Event
	for _, e := range synthTrain(8, recycleQuanta, testQuantum) {
		if e.Kind != trace.KindConflictMiss {
			quiet = append(quiet, e)
		}
	}
	cfg := core.DefaultDetectorConfig(testQuantum, 4)
	end := uint64(recycleQuanta) * testQuantum
	want := marshalVerdict(t, batchReport(t, quiet, cfg, end, 64))
	for attempt := 0; attempt < 3; attempt++ {
		d, _ := runDetector(t, 1, 0)
		d.Release()
		if got := marshalVerdict(t, streamReport(t, quiet, Config{Detector: cfg}, end, 64, false)); !bytes.Equal(got, want) {
			t.Fatalf("streaming verdict differs from batch\nbatch:  %.400s\nstream: %.400s", want, got)
		}
	}
}

// TestUnreleasedReportSurvivesPoolChurn: a Finalize Report whose
// detector is never released keeps its correlograms for good, however
// many detectors run and release after it.
func TestUnreleasedReportSurvivesPoolChurn(t *testing.T) {
	_, kept := runDetector(t, 2, 0)
	want := marshalVerdict(t, kept)
	for seed := uint64(3); seed < 6; seed++ {
		d, _ := runDetector(t, seed, 0)
		d.Release()
	}
	if got := marshalVerdict(t, kept); !bytes.Equal(got, want) {
		t.Errorf("unreleased Report changed\nbefore: %.300s\nafter:  %.300s", want, got)
	}
}

// TestBoundedRetentionKeepsEvictedBest: with a one-window ring every
// fold evicts the previous analysis, and its correlogram goes back to
// the pool unless it is the best window's. The best survives eviction
// intact: its verdict matches the unbounded run's.
func TestBoundedRetentionKeepsEvictedBest(t *testing.T) {
	_, full := runDetector(t, 7, 0)
	d, bounded := runDetector(t, 7, 1)
	if !d.bestOrphan {
		t.Fatal("the best window never left the ring, so eviction went untested")
	}
	want, err := json.Marshal(full.Oscillation.Best)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(bounded.Oscillation.Best)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("evicted best differs from the unbounded run's\nbounded: %.300s\nfull:    %.300s", got, want)
	}
	d.Release()
}

// TestInterimReportValidUntilNextCall: an Interim Report whose open
// window wins keeps its correlogram intact while other detectors churn
// the pools, up to the detector's next Interim.
func TestInterimReportValidUntilNextCall(t *testing.T) {
	const gap, phase, n = 100, 7, 600
	events := make([]trace.Event, n)
	for i := range events {
		e := trace.Event{Cycle: uint64(i+1) * gap, Kind: trace.KindConflictMiss, Unit: uint32(i % 64)}
		if (i/phase)%2 == 1 {
			e.Actor = 1
		} else {
			e.Victim = 1
		}
		events[i] = e
	}
	cycle := events[n-1].Cycle // inside the first, still open, window
	d := New(newAuditor(t, testQuantum), Config{Detector: core.DefaultDetectorConfig(testQuantum, 4)})
	d.OnEvents(events)
	rep := d.Interim(cycle)
	if d.windowsAnalyzed != 0 {
		t.Fatalf("%d windows closed; the fixture must stay in the open window", d.windowsAnalyzed)
	}
	acf := rep.Oscillation.Best.Autocorrelogram
	if len(acf) == 0 || !rep.Oscillation.Best.Detected {
		t.Fatal("the open window's analysis detected nothing")
	}
	want := slices.Clone(acf)
	for seed := uint64(1); seed < 4; seed++ {
		other, _ := runDetector(t, seed, 0)
		other.Release()
	}
	if !slices.Equal(acf, want) {
		t.Error("Interim correlogram changed before the detector's next call")
	}
	next := d.Interim(cycle)
	if !slices.Equal(next.Oscillation.Best.Autocorrelogram, want) {
		t.Error("a repeated Interim over the same events renders another correlogram")
	}
	d.Finalize(testQuantum)
	d.Release()
}
