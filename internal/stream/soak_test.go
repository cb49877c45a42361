package stream

import (
	"runtime"
	"testing"

	"cchunter/internal/core"
)

// soakRun streams a synthetic train of the given length through a
// bounded-retention detector, sampling the live heap as it goes, and
// returns the peak sampled heap and the detector's own retention
// high-water marks.
func soakRun(t *testing.T, quanta int, faulty bool) (peakHeap uint64, peakEvents, retained int) {
	t.Helper()
	events := synthTrain(21, quanta, testQuantum)
	if faulty {
		events = perturb(events, 31)
	}
	cfg := core.DefaultDetectorConfig(testQuantum, 4)
	cfg.ObservationDivisor = 2
	// Bound every growth axis: this is the daemon configuration, not
	// the byte-identical-Windows one.
	cfg.WindowQuanta = 64
	aud := newAuditor(t, testQuantum)
	d := New(aud, Config{Detector: cfg, RetainWindows: 8})

	var ms runtime.MemStats
	sample := func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
	}
	const chunk = 256
	for i := 0; i < len(events); i += chunk {
		j := i + chunk
		if j > len(events) {
			j = len(events)
		}
		d.OnEvents(events[i:j])
		if (i/chunk)%64 == 0 {
			sample()
		}
	}
	sample()
	rep := d.Finalize(uint64(quanta) * testQuantum)
	if rep.Streaming == nil {
		t.Fatal("soak run lost its streaming info")
	}
	return peakHeap, rep.Streaming.PeakRetainedEvents, d.RetainedEvents()
}

// TestSoakBoundedMemory is the O(window) proof by experiment: a 10×
// longer trace must not grow the detector's peak heap. The paper's
// runs cover a few hundred OS quanta; the long leg here is 10× the
// short leg with identical event density, so any per-event or
// per-window retention shows up as a near-10× heap ratio. The
// retention high-water marks are checked exactly; the heap comparison
// gets slack for GC noise.
func TestSoakBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, tc := range []struct {
		name   string
		faulty bool
	}{
		{"clean", false},
		{"fault-injected", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap1, peak1, _ := soakRun(t, 100, tc.faulty)
			heap10, peak10, left10 := soakRun(t, 1000, tc.faulty)

			// The conflict train must never hold much more than one
			// observation window of deduplicated events, regardless of
			// trace length.
			if peak10 > 4*peak1+1024 {
				t.Errorf("peak retained events grew with trace length: %d (10×) vs %d (1×)",
					peak10, peak1)
			}
			if left10 > peak10 {
				t.Errorf("events left after finalize (%d) exceed the run's high-water mark (%d)",
					left10, peak10)
			}
			// Peak heap: allow 2× for GC jitter and ring warmup; a
			// linear O(trace) retention would show up as ~10×.
			if heap10 > 2*heap1+(8<<20) {
				t.Errorf("peak heap grew with trace length: %d bytes (10×) vs %d bytes (1×)",
					heap10, heap1)
			}
		})
	}
}
