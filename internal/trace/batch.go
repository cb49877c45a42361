package trace

// batch.go is the batched event-delivery layer. The simulator's
// hardware units raise one Event per occurrence and Add it to a
// Batcher, the only per-event entry point in the program; every
// consumer behind it (fault injector, auditor, detectors, recorders)
// takes whole slices through Listener. That amortizes interface
// dispatch, bounds checks and per-stage bookkeeping to one pass per
// batch while leaving every consumer's per-event state machine
// untouched. The same events arrive in the same order at every size,
// so every Result field except the streaming detector's retention
// high-water mark (core.StreamingInfo.PeakRetainedEvents, sampled once
// per delivered batch) is byte-identical at every size
// (TestBatchedDeliveryMatchesPerEvent in the root package pins this at
// sizes 1, 37 and 512).

import "cchunter/internal/obs"

// DefaultBatchSize is the event batch used when a caller does not pick
// one: big enough to amortize dispatch, small enough (~12 KB) to stay
// cache-resident.
const DefaultBatchSize = 512

// Batcher accumulates events into a fixed-capacity arena and forwards
// them downstream in slices: full batches flush automatically, and the
// producer calls Flush at synchronization points (end of run, before
// reading consumers). The arena is reused across flushes, so
// steady-state operation allocates nothing.
type Batcher struct {
	out Listener
	buf []Event

	mEvents  *obs.Counter // events delivered downstream
	mFlushes *obs.Counter // batches handed off
}

// NewBatcher returns a batcher delivering to out in batches of the
// given size (DefaultBatchSize when size <= 0).
func NewBatcher(out Listener, size int) *Batcher {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &Batcher{out: out, buf: make([]Event, 0, size)}
}

// Add appends one event to the arena, flushing when it fills.
func (b *Batcher) Add(e Event) {
	b.buf = append(b.buf, e)
	if len(b.buf) == cap(b.buf) {
		b.Flush()
	}
}

// Instrument points the batcher at a metrics registry: every flush
// records the batch count and size. A nil registry disables recording
// (the counters stay nil, and nil counters are no-ops).
func (b *Batcher) Instrument(reg *obs.Registry) {
	b.mEvents = reg.Counter("trace.batch.events")
	b.mFlushes = reg.Counter("trace.batch.flushes")
}

// Flush delivers any buffered events downstream and resets the arena.
func (b *Batcher) Flush() {
	if len(b.buf) == 0 {
		return
	}
	b.mEvents.Add(uint64(len(b.buf)))
	b.mFlushes.Inc()
	b.out.OnEvents(b.buf)
	b.buf = b.buf[:0]
}
