package trace

// Listener receives events as the simulator executes, one slice at a
// time. The slice is only valid for the duration of the call and must
// not be retained or mutated; implementations that keep events must
// copy them (Train.AppendBatch does). Listeners are called
// synchronously on the engine's execution path and must not block.
// Every consumer is a per-event state machine over the sequence, so
// where one slice ends and the next begins does not change its
// verdicts or evidence; a slice of one event is per-event delivery.
// The one exception is a high-water mark sampled per slice:
// core.StreamingInfo.PeakRetainedEvents.
type Listener interface {
	OnEvents([]Event)
}

// Recorder is a Listener that appends every event (optionally filtered
// by kind) to a Train. It stands in for an ideal, infinitely deep
// monitoring buffer; the CC-Auditor model in internal/auditor applies
// the paper's real hardware limits on top of the same Listener
// interface.
type Recorder struct {
	train *Train
	kinds map[Kind]bool // nil means all kinds
}

// NewRecorder returns a recorder capturing the given kinds (all kinds
// when none are listed).
func NewRecorder(kinds ...Kind) *Recorder {
	r := &Recorder{train: NewTrain(1024)}
	if len(kinds) > 0 {
		r.kinds = make(map[Kind]bool, len(kinds))
		for _, k := range kinds {
			r.kinds[k] = true
		}
	}
	return r
}

// OnEvents implements Listener: an unfiltered recorder bulk-appends
// the whole batch into its train arena; a filtered one appends the
// events of its kinds one by one.
func (r *Recorder) OnEvents(events []Event) {
	if r.kinds == nil {
		r.train.AppendBatch(events)
		return
	}
	for _, e := range events {
		if r.kinds[e.Kind] {
			r.train.Append(e)
		}
	}
}

// Train returns the recorded train.
func (r *Recorder) Train() *Train { return r.train }

// Tee is a Listener that fans events out to several listeners.
type Tee []Listener

// OnEvents implements Listener.
func (t Tee) OnEvents(events []Event) {
	for _, l := range t {
		l.OnEvents(events)
	}
}
