// Package trace defines the event model shared by every layer of the
// reproduction: hardware units add Events to a Batcher, which hands
// them in slices to Listeners such as the CC-Auditor, and the
// detection algorithms consume them as event trains (uni-dimensional
// time series of event occurrences, §IV-B).
package trace

import "fmt"

// Kind identifies the hardware indicator event behind a conflict
// (§IV-B step 1: the first step in detecting covert timing channels is
// identifying the event behind the resource contention).
type Kind uint8

const (
	// KindBusLock fires when a context performs an atomic unaligned
	// memory access spanning two cache lines, locking the memory bus
	// (or its QPI-emulated equivalent).
	KindBusLock Kind = iota
	// KindDivContention fires for every cycle in which a division from
	// one hardware context waits on a divider occupied by an
	// instruction from another context.
	KindDivContention
	// KindConflictMiss fires when a cache access misses because the
	// block was prematurely evicted from a set-associative cache (it
	// would have been retained by a fully-associative cache of the
	// same capacity), and another context's block is replaced to make
	// room.
	KindConflictMiss
	// KindRingContention fires when a memory access from one core waits
	// on a slotted-ring interconnect segment occupied by traffic from
	// another core (the lord-of-the-ring style cross-core channel).
	KindRingContention
	// KindTLBConflict fires when a TLB fill from one hardware context
	// evicts a translation inserted by the other hyperthread sharing
	// the core's sTLB.
	KindTLBConflict
	numKinds
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindBusLock:
		return "bus-lock"
	case KindDivContention:
		return "div-contention"
	case KindConflictMiss:
		return "conflict-miss"
	case KindRingContention:
		return "ring-contention"
	case KindTLBConflict:
		return "tlb-conflict"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NumKinds returns the number of defined event kinds.
func NumKinds() int { return int(numKinds) }

// NoContext marks an absent context ID (e.g. a conflict miss that
// evicted an unowned block).
const NoContext uint8 = 0xff

// Event is a single indicator-event occurrence.
type Event struct {
	// Cycle is the simulated global time of the occurrence.
	Cycle uint64
	// Kind says which indicator event fired.
	Kind Kind
	// Actor is the hardware context that caused the event: the context
	// issuing the bus lock, the context waiting on the divider, or the
	// replacer of a conflict miss.
	Actor uint8
	// Victim is the other side where one exists: the context occupying
	// the divider, or the owner of the evicted cache block. NoContext
	// when absent.
	Victim uint8
	// Unit is the cache set index for conflict misses (used by the
	// auditor's per-set run-length dedup); 0 otherwise.
	Unit uint32
}

// Train is an append-only event train: a time-ordered series of events
// on one shared resource. Append enforces monotonically non-decreasing
// cycles, which every producer in the simulator satisfies because ops
// execute in global time order.
type Train struct {
	events []Event
}

// NewTrain returns an empty train with capacity hint n.
func NewTrain(n int) *Train {
	return &Train{events: make([]Event, 0, n)}
}

// Append adds an event to the train. It panics if the event would make
// the train non-monotonic in time; that would mean the simulator's
// global ordering is broken, which is a bug worth failing loudly on.
func (t *Train) Append(e Event) {
	if n := len(t.events); n > 0 && e.Cycle < t.events[n-1].Cycle {
		panic(fmt.Sprintf("trace: out-of-order event at cycle %d after %d",
			e.Cycle, t.events[n-1].Cycle))
	}
	t.events = append(t.events, e)
}

// Reserve ensures capacity for n more events, growing the backing
// arena geometrically so repeated batch appends amortize to O(1) per
// event regardless of batch size.
func (t *Train) Reserve(n int) {
	need := len(t.events) + n
	if cap(t.events) >= need {
		return
	}
	newCap := 2 * cap(t.events)
	if newCap < need {
		newCap = need
	}
	if newCap < 1024 {
		newCap = 1024
	}
	grown := make([]Event, len(t.events), newCap)
	copy(grown, t.events)
	t.events = grown
}

// AppendBatch adds a slice of events with one capacity reservation and
// a single monotonicity pass — the batched-delivery equivalent of
// calling Append per event, with identical panic semantics on
// out-of-order input. The input slice is copied, never retained.
func (t *Train) AppendBatch(events []Event) {
	if len(events) == 0 {
		return
	}
	last := uint64(0)
	if n := len(t.events); n > 0 {
		last = t.events[n-1].Cycle
	} else {
		last = events[0].Cycle
	}
	for _, e := range events {
		if e.Cycle < last {
			panic(fmt.Sprintf("trace: out-of-order event at cycle %d after %d",
				e.Cycle, last))
		}
		last = e.Cycle
	}
	t.Reserve(len(events))
	t.events = append(t.events, events...)
}

// AppendClamped adds an event to the train, clamping a non-monotonic
// cycle up to the previous event's cycle instead of panicking. It
// returns true when clamping occurred. This is the ingestion path for
// *degraded* streams — timestamp jitter and bounded reordering from a
// faulty sensor path deliver events slightly out of order, and real
// capture hardware timestamps on arrival, which is exactly what the
// clamp models. Producers that guarantee global time order keep using
// Append, whose panic still flags genuine simulator bugs.
func (t *Train) AppendClamped(e Event) bool {
	clamped := false
	if n := len(t.events); n > 0 && e.Cycle < t.events[n-1].Cycle {
		e.Cycle = t.events[n-1].Cycle
		clamped = true
	}
	t.events = append(t.events, e)
	return clamped
}

// TrimFront discards every event with Cycle < before and returns how
// many were dropped. The streaming detector calls it after closing an
// observation window so a train holds O(window) events regardless of
// run length; the surviving suffix is compacted to the front of the
// backing array, so the arena is reused rather than regrown. Appending
// still clamps against the (unchanged) last retained event, which keeps
// a trimmed train's future contents identical to an untrimmed one's.
func (t *Train) TrimFront(before uint64) int {
	lo := searchCycle(t.events, before)
	if lo == 0 {
		return 0
	}
	n := copy(t.events, t.events[lo:])
	t.events = t.events[:n]
	return lo
}

// Reset empties the train and keeps its backing array, so a recycled
// train appends without regrowing.
func (t *Train) Reset() { t.events = t.events[:0] }

// Len returns the number of events.
func (t *Train) Len() int { return len(t.events) }

// Events returns the underlying events. Callers must not mutate it.
func (t *Train) Events() []Event { return t.events }

// At returns the i-th event.
func (t *Train) At(i int) Event { return t.events[i] }

// Span returns the first and last event cycles, or (0, 0) for an empty
// train.
func (t *Train) Span() (first, last uint64) {
	if len(t.events) == 0 {
		return 0, 0
	}
	return t.events[0].Cycle, t.events[len(t.events)-1].Cycle
}

// Window returns a new train containing the events with
// start <= Cycle < end. The events slice is shared, not copied.
func (t *Train) Window(start, end uint64) *Train {
	lo := searchCycle(t.events, start)
	hi := searchCycle(t.events, end)
	return &Train{events: t.events[lo:hi]}
}

// searchCycle returns the index of the first event with Cycle >= c.
func searchCycle(events []Event, c uint64) int {
	lo, hi := 0, len(events)
	for lo < hi {
		mid := (lo + hi) / 2
		if events[mid].Cycle < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FilterKind returns a new train with only events of kind k (copied).
func (t *Train) FilterKind(k Kind) *Train {
	out := &Train{}
	for _, e := range t.events {
		if e.Kind == k {
			out.events = append(out.events, e)
		}
	}
	return out
}

// Densities slices [start, end) into consecutive Δt windows and returns
// the event count in each (§IV-B step 1: Δt is the observation window
// to count the number of event occurrences within that interval).
// Events outside the range are ignored (the train is time-ordered, so
// the range is narrowed by binary search and only events inside it are
// visited). A partial trailing window is included when includePartial
// is true.
func (t *Train) Densities(start, end, dt uint64, includePartial bool) []int {
	return t.DensitiesInto(nil, start, end, dt, includePartial)
}

// DensitiesInto is Densities filling a caller-provided buffer (grown
// when too small, e.g. from internal/pool), so repeated density sweeps
// allocate nothing in steady state. The count loop is unrolled
// four-wide; the windows are disjoint only across groups, so each
// group's bumps still land on the right bins when several events share
// a window. Returns the filled slice.
func (t *Train) DensitiesInto(out []int, start, end, dt uint64, includePartial bool) []int {
	if dt == 0 {
		panic("trace: Densities with dt == 0")
	}
	if end <= start {
		return out[:0]
	}
	span := end - start
	n := int(span / dt)
	partial := span%dt != 0
	total := n
	if partial && includePartial {
		total++
	}
	if cap(out) < total {
		out = make([]int, total)
	} else {
		out = out[:total]
		for i := range out {
			out[i] = 0
		}
	}
	lo := searchCycle(t.events, start)
	hi := searchCycle(t.events, end)
	ev := t.events[lo:hi]
	i := 0
	for ; i+4 <= len(ev); i += 4 {
		i0 := int((ev[i].Cycle - start) / dt)
		i1 := int((ev[i+1].Cycle - start) / dt)
		i2 := int((ev[i+2].Cycle - start) / dt)
		i3 := int((ev[i+3].Cycle - start) / dt)
		if i3 < total { // events are time-ordered: i0 <= i1 <= i2 <= i3
			out[i0]++
			out[i1]++
			out[i2]++
			out[i3]++
			continue
		}
		for _, idx := range [4]int{i0, i1, i2, i3} {
			if idx < total {
				out[idx]++
			}
		}
	}
	for ; i < len(ev); i++ {
		if idx := int((ev[i].Cycle - start) / dt); idx < total {
			out[idx]++
		}
	}
	return out
}

// InterEventIntervals returns the cycle gaps between consecutive
// events.
func (t *Train) InterEventIntervals() []uint64 {
	if len(t.events) < 2 {
		return nil
	}
	out := make([]uint64, len(t.events)-1)
	for i := 1; i < len(t.events); i++ {
		out[i-1] = t.events[i].Cycle - t.events[i-1].Cycle
	}
	return out
}
