package stream

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"cchunter/internal/obs"
	"cchunter/internal/trace"
)

// Ingest is a bounded hand-off queue in front of an event consumer
// (typically a streaming Detector): producers enqueue event batches
// without ever blocking, a single consumer goroutine delivers them in
// order, and when the queue is full the batch is shed and counted
// instead of stalling the producer. This is the load-shedding contract
// of a monitoring pipeline — under overload the daemon degrades its
// evidence base (and says so, via the shed count folding into the
// verdict's Streaming info) rather than back-pressuring the system it
// observes.
//
// Events are copied on enqueue into a buffer from batches, the
// size-classed pool every Ingest in the process shares; the producer's
// batch buffer is never retained. Delivered and shed buffers both go back to that
// pool, so once it has warmed up ingestion allocates nothing, also
// across the fresh Ingest a fleet shard builds every epoch.
// Deliveries happen on the consumer goroutine, so the wrapped listener
// needs no locking of its own as long as Ingest is its only caller.
type Ingest struct {
	dst  trace.Listener
	ch   chan item
	wg   sync.WaitGroup
	shed atomic.Uint64

	mShed *obs.Counter
}

// batches recycles event-batch buffers across every Ingest, one pool
// per power-of-two capacity: a batch takes the smallest class that
// holds it, so a 40-event quantum of a quiet stream does not pin a
// DefaultBatchSize buffer while it waits in a queue. A buffer travels
// boxed, so Get and Put move a pointer and never allocate. A listener
// must not retain a delivered batch (trace.Listener's contract),
// which is what makes the hand-back safe. Classes run from 1 to 1<<16
// events (1 MiB).
var batches [17]sync.Pool

// borrowBatch returns a pooled buffer holding a copy of events.
// Batches beyond the largest class get a buffer of their own, which
// recycleBatch then drops.
func borrowBatch(events []trace.Event) *[]trace.Event {
	c := bits.Len(uint(len(events) - 1))
	var b *[]trace.Event
	if c < len(batches) {
		b, _ = batches[c].Get().(*[]trace.Event)
	}
	if b == nil {
		buf := make([]trace.Event, 0, 1<<c)
		b = &buf
	}
	*b = append((*b)[:0], events...)
	return b
}

// recycleBatch hands a delivered or shed buffer back to its class.
func recycleBatch(b *[]trace.Event) {
	if c := bits.Len(uint(cap(*b))) - 1; c < len(batches) {
		batches[c].Put(b)
	}
}

// item is one queue entry: a pooled event batch, or a control function
// to run in order on the consumer goroutine (see Do).
type item struct {
	batch *[]trace.Event
	fn    func()
}

// NewIngest starts the consumer goroutine. queueLen is the number of
// in-flight batches the queue holds before shedding (minimum 1).
// Call Close before reading the consumer's final state.
func NewIngest(dst trace.Listener, queueLen int, reg *obs.Registry) *Ingest {
	if queueLen < 1 {
		queueLen = 1
	}
	in := &Ingest{
		dst:   dst,
		ch:    make(chan item, queueLen),
		mShed: reg.Counter("stream.events_shed"),
	}
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		for it := range in.ch {
			if it.fn != nil {
				it.fn()
				continue
			}
			in.dst.OnEvents(*it.batch)
			recycleBatch(it.batch)
		}
	}()
	return in
}

// OnEvents implements trace.Listener. The batch is copied; the
// caller's buffer is free for reuse on return.
func (in *Ingest) OnEvents(events []trace.Event) {
	if len(events) == 0 {
		return
	}
	in.enqueue(borrowBatch(events))
}

// Do enqueues fn behind every batch already queued and runs it on the
// consumer goroutine — an ordered quiesce point. Unlike event batches,
// control operations are never shed: Do blocks until the queue has
// room (the caller accepts back-pressure on control, which is rare and
// must not be lost). fn runs with exclusive access to the consumer's
// state; a long fn delays subsequent deliveries. Must not be called
// after Close.
func (in *Ingest) Do(fn func()) {
	if fn == nil {
		return
	}
	in.ch <- item{fn: fn}
}

func (in *Ingest) enqueue(b *[]trace.Event) {
	select {
	case in.ch <- item{batch: b}:
	default:
		n := uint64(len(*b))
		in.shed.Add(n)
		in.mShed.Add(n)
		recycleBatch(b)
	}
}

// Close stops accepting events and blocks until every queued batch has
// been delivered. The Ingest must not be used afterwards.
func (in *Ingest) Close() {
	close(in.ch)
	in.wg.Wait()
}

// Shed reports how many events were dropped at the queue.
func (in *Ingest) Shed() uint64 { return in.shed.Load() }

// Pending reports how many queue entries (batches and control ops)
// currently await the consumer — the backpressure depth gauge.
func (in *Ingest) Pending() int { return len(in.ch) }
