package stream

import (
	"sync"
	"testing"

	"cchunter/internal/obs"
	"cchunter/internal/trace"
)

// sink is a batch-aware listener that can block deliveries on demand.
type sink struct {
	mu      sync.Mutex
	events  []trace.Event
	batches int
	gate    chan struct{} // when non-nil, OnEvents waits on it once per batch
	started chan struct{} // signaled when a delivery begins waiting
}

func (s *sink) OnEvents(events []trace.Event) {
	if s.gate != nil {
		s.started <- struct{}{}
		<-s.gate
	}
	s.mu.Lock()
	s.events = append(s.events, events...)
	s.batches++
	s.mu.Unlock()
}

func ev(c uint64) trace.Event { return trace.Event{Cycle: c, Kind: trace.KindBusLock} }

// TestIngestDeliversInOrder: everything enqueued under capacity comes
// out in order, batched, and the producer's buffer is not aliased.
func TestIngestDeliversInOrder(t *testing.T) {
	dst := &sink{}
	in := NewIngest(dst, 64, nil)
	buf := []trace.Event{ev(1), ev(2), ev(3)}
	in.OnEvents(buf)
	buf[0] = ev(999) // mutate the producer buffer after handoff
	in.OnEvents([]trace.Event{ev(4)})
	in.Close()
	if in.Shed() != 0 {
		t.Fatalf("shed %d events under capacity", in.Shed())
	}
	if len(dst.events) != 4 {
		t.Fatalf("delivered %d events, want 4", len(dst.events))
	}
	for i, want := range []uint64{1, 2, 3, 4} {
		if dst.events[i].Cycle != want {
			t.Errorf("event %d has cycle %d, want %d", i, dst.events[i].Cycle, want)
		}
	}
	if dst.batches != 2 {
		t.Errorf("delivered in %d batches, want 2 (batch path unused?)", dst.batches)
	}
}

// TestIngestShedsUnderOverload: with the consumer wedged and the queue
// full, enqueues shed instead of blocking, the shed count is exact,
// and the metrics counter agrees.
func TestIngestShedsUnderOverload(t *testing.T) {
	dst := &sink{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	reg := obs.NewRegistry()
	in := NewIngest(dst, 1, reg)

	in.OnEvents([]trace.Event{ev(1), ev(2)})
	<-dst.started                            // consumer is now wedged mid-delivery of batch 1
	in.OnEvents([]trace.Event{ev(3)})        // sits in the queue
	in.OnEvents([]trace.Event{ev(4), ev(5)}) // queue full: shed
	in.OnEvents([]trace.Event{ev(6)})        // shed

	if got := in.Shed(); got != 3 {
		t.Fatalf("shed = %d, want 3", got)
	}
	close(dst.gate) // unwedge; remaining queued batch drains
	in.Close()
	if len(dst.events) != 3 {
		t.Fatalf("delivered %d events, want 3", len(dst.events))
	}
	snap := reg.Snapshot()
	if got := snap.Counters["stream.events_shed"]; got != 3 {
		t.Errorf("stream.events_shed = %d, want 3", got)
	}
}

// TestIngestNilRegistry: shedding with no registry must not panic.
func TestIngestNilRegistry(t *testing.T) {
	dst := &sink{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	in := NewIngest(dst, 1, nil)
	in.OnEvents([]trace.Event{ev(1)})
	<-dst.started
	in.OnEvents([]trace.Event{ev(2)})
	in.OnEvents([]trace.Event{ev(3)}) // shed, nil counter path
	if in.Shed() == 0 {
		t.Error("nothing shed")
	}
	close(dst.gate)
	in.Close()
}

// TestIngestShedRecyclesBuffer: a shed batch's buffer goes back to the
// shared batch pool, so a producer shedding into a wedged consumer's
// full queue allocates nothing per batch.
func TestIngestShedRecyclesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so shed buffers are re-made")
	}
	dst := &sink{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	in := NewIngest(dst, 1, nil)
	in.OnEvents([]trace.Event{ev(1)})
	<-dst.started                     // consumer wedged mid-delivery
	in.OnEvents([]trace.Event{ev(2)}) // queue full from here on
	batch := make([]trace.Event, 300)
	before := in.Shed()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() { in.OnEvents(batch) })
	shed := in.Shed() - before
	close(dst.gate)
	in.Close()
	if want := uint64((runs + 1) * len(batch)); shed != want {
		t.Fatalf("shed %d events, want %d (every batch)", shed, want)
	}
	if allocs != 0 {
		t.Errorf("shedding allocates %.0f times per batch, want 0", allocs)
	}
}
