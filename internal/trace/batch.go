package trace

// batch.go is the batched event-delivery layer. The simulator's
// hardware units emit one Event per occurrence, but pushing each event
// through the whole unit → fault-injector → auditor listener chain one
// callback at a time pays interface dispatch, bounds checks, and
// per-stage bookkeeping per event. Delivering events in slices
// amortizes all of that to one pass per batch while leaving every
// consumer's per-event state machine untouched — which is why batching
// is observationally invisible: the same events arrive in the same
// order, so verdicts are byte-identical at every batch size (the
// regression tests in the root package pin this).

import "cchunter/internal/obs"

// DefaultBatchSize is the event batch used when a caller does not pick
// one: big enough to amortize dispatch, small enough (~12 KB) to stay
// cache-resident.
const DefaultBatchSize = 512

// BatchListener is implemented by consumers that accept events in
// slices. The slice is only valid for the duration of the call and
// must not be retained or mutated; implementations that keep events
// must copy them (Train.AppendBatch does).
type BatchListener interface {
	OnEvents([]Event)
}

// Deliver hands a batch to a listener, using its batched entry point
// when it has one and falling back to per-event callbacks otherwise.
func Deliver(l Listener, events []Event) {
	if len(events) == 0 {
		return
	}
	if bl, ok := l.(BatchListener); ok {
		bl.OnEvents(events)
		return
	}
	for _, e := range events {
		l.OnEvent(e)
	}
}

// Batcher is a Listener that accumulates events into a fixed-capacity
// arena and forwards them downstream in slices: full batches flush
// automatically, and the producer calls Flush at synchronization
// points (end of run, before reading consumers). The arena is reused
// across flushes, so steady-state operation allocates nothing.
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

// OnEvent implements Listener: append to the arena, flushing when it
// fills.
func (b *Batcher) OnEvent(e Event) {
	b.buf = append(b.buf, e)
	if len(b.buf) == cap(b.buf) {
		b.Flush()
	}
}

// OnEvents implements BatchListener, letting batchers compose.
func (b *Batcher) OnEvents(events []Event) {
	for _, e := range events {
		b.OnEvent(e)
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
	Deliver(b.out, b.buf)
	b.buf = b.buf[:0]
}
