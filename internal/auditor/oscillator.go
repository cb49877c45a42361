package auditor

import (
	"sync"

	"cchunter/internal/obs"
	"cchunter/internal/trace"
)

// oscillator models the conflict-miss capture path: two alternating
// 128-byte vector registers that record, for every conflict miss, the
// 3-bit context IDs of the replacer and the victim (§V-A). While one
// register fills, the software daemon drains the other in the
// background. The paper sizes the registers so the daemon always keeps
// up, and the model holds to that: a swap drains the full register into
// the software-side train and loses nothing. Over every figure and the
// golden corpus the fastest fill of a register (128 deduplicated
// entries) takes 25,539 cycles, against roughly 2,100 cycles for an
// interrupt plus 128 stores.
//
// Consecutive conflict misses in the same cache set with the same
// (replacer, victim) pair collapse into a single recorded entry: an
// 8-way fill of one set by one replacer carries one unit of signal,
// and deduplicating in hardware is a single comparator against the
// last recorded entry. This is what aligns the oscillation period with
// the *number of cache sets* used by a covert channel, the quantity
// the paper reads off the autocorrelogram peak lag (Figure 8b: "a lag
// value of 533 ... very close to the actual number of conflicting sets
// in the shared cache, 512").
type oscillator struct {
	capacity int // entries per vector register (one byte each)
	active   []trace.Event
	train    *trace.Train
	swaps    uint64
	clamped  uint64 // entries whose timestamps arrived out of order
	trimmed  uint64 // entries released after streaming window analysis

	havePrev bool
	prevSet  uint32
	prevA    uint8
	prevV    uint8

	mRecorded *obs.Counter // entries drained into the train
	mDeduped  *obs.Counter // same-set same-pair runs collapsed
	mSwaps    *obs.Counter // vector-register swaps
}

func (o *oscillator) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	o.mRecorded = reg.Counter("auditor.conflicts.recorded")
	o.mDeduped = reg.Counter("auditor.conflicts.deduped")
	o.mSwaps = reg.Counter("auditor.conflicts.swaps")
}

// oscillators recycles capture paths across auditors: Release puts an
// auditor's oscillator back, vector register and train included, and
// the next MonitorConflicts takes it, so a recycled train keeps the
// capacity an earlier run grew it to instead of regrowing from the
// construction hint.
var oscillators sync.Pool

// newOscillator takes a capture path from the pool, reset to the state
// of a freshly built one, or builds one when the pool is empty.
func newOscillator(vectorBytes int) *oscillator {
	o, _ := oscillators.Get().(*oscillator)
	if o == nil {
		return &oscillator{
			capacity: vectorBytes,
			active:   make([]trace.Event, 0, vectorBytes),
			train:    trace.NewTrain(4096),
		}
	}
	active := o.active[:0]
	if cap(active) < vectorBytes {
		active = make([]trace.Event, 0, vectorBytes)
	}
	train := o.train
	train.Reset()
	*o = oscillator{capacity: vectorBytes, active: active, train: train}
	return o
}

func (o *oscillator) onEvent(e trace.Event) {
	if o.havePrev && e.Unit == o.prevSet && e.Actor == o.prevA && e.Victim == o.prevV {
		o.mDeduped.Inc()
		return // same-set same-pair run: hardware dedup
	}
	o.havePrev = true
	o.prevSet, o.prevA, o.prevV = e.Unit, e.Actor, e.Victim
	if len(o.active) >= o.capacity {
		o.swaps++
		o.mSwaps.Inc()
		o.drainActive()
	}
	o.active = append(o.active, e)
}

// drainActive moves the full register's contents into the software-
// side train (the daemon's background copy). A degraded sensor path
// (timestamp jitter, bounded reordering) can deliver entries whose
// cycles run backwards; the daemon clamps them on ingest — as arrival-
// time stamping hardware would — and counts the clamps so the detector
// can qualify its verdict.
func (o *oscillator) drainActive() {
	o.mRecorded.Add(uint64(len(o.active)))
	for _, e := range o.active {
		if o.train.AppendClamped(e) {
			o.clamped++
		}
	}
	o.active = o.active[:0]
}

// flush empties the registers into the train (end of run).
func (o *oscillator) flush() {
	o.drainActive()
	o.havePrev = false
}
