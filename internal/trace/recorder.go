package trace

// Listener receives events as the simulator executes. Implementations
// must not block; they are called synchronously on the engine's
// execution path.
type Listener interface {
	OnEvent(Event)
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

// OnEvent implements Listener.
func (r *Recorder) OnEvent(e Event) {
	if r.kinds != nil && !r.kinds[e.Kind] {
		return
	}
	r.train.Append(e)
}

// OnEvents implements BatchListener: an unfiltered recorder
// bulk-appends the whole batch into its train arena; a filtered one
// keeps the per-event path, whose check it needs.
func (r *Recorder) OnEvents(events []Event) {
	if r.kinds == nil {
		r.train.AppendBatch(events)
		return
	}
	for _, e := range events {
		r.OnEvent(e)
	}
}

// Train returns the recorded train.
func (r *Recorder) Train() *Train { return r.train }

// Tee is a Listener that fans events out to several listeners.
type Tee []Listener

// OnEvent implements Listener.
func (t Tee) OnEvent(e Event) {
	for _, l := range t {
		l.OnEvent(e)
	}
}

// OnEvents implements BatchListener: each fan-out target gets the
// batch through its own fastest entry point.
func (t Tee) OnEvents(events []Event) {
	for _, l := range t {
		Deliver(l, events)
	}
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(Event)

// OnEvent implements Listener.
func (f ListenerFunc) OnEvent(e Event) { f(e) }
