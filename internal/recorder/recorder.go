// Package recorder is the pipeline's flight recorder: a bounded ring
// of the most recent raw indicator events, serialized as a versioned
// "flight" when a verdict fires. A flight is the forensic artifact of
// a detection — small enough to keep per alarm, complete enough to
// replay deterministically through any detector version (cctrace
// replay), so a verdict rendered by last month's binary can be
// re-examined under today's analysis without re-running the workload.
package recorder

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cchunter/internal/trace"
)

// FlightSchema versions the serialized format.
const FlightSchema = "cchunter-flight/1"

// Meta is the run context a flight needs for faithful replay.
type Meta struct {
	// Seed is the scenario seed the run used.
	Seed uint64 `json:"seed"`
	// QuantumCycles is the OS time quantum.
	QuantumCycles uint64 `json:"quantumCycles"`
	// Contexts is the machine's hardware context count.
	Contexts int `json:"contexts"`
	// ObservationDivisor is the oscillation window divisor.
	ObservationDivisor int `json:"observationDivisor"`
	// EndCycle is the simulated cycle the verdict was rendered at.
	EndCycle uint64 `json:"endCycle"`
	// EventsShed counts events the live run's bounded ingest queue
	// dropped before they reached the detector (and therefore before
	// they could reach this recorder). A replay of such a flight is
	// working from the same degraded evidence base the live verdict
	// was, and reports the count instead of silently diverging.
	EventsShed uint64 `json:"eventsShed,omitempty"`
	// Kinds lists the burst-event kinds the live run's auditor
	// monitored, in programming order. Empty (captures from before the
	// ring/TLB channels existed) means the classic bus + divider pair,
	// so old flights replay byte-identically.
	Kinds []trace.Kind `json:"kinds,omitempty"`
}

// Flight is one serialized capture.
type Flight struct {
	// Schema is FlightSchema.
	Schema string `json:"schema"`
	// Reason says why the capture happened (e.g. "detection").
	Reason string `json:"reason"`
	// Meta carries the replay context.
	Meta Meta `json:"meta"`
	// Truncated reports that the ring wrapped: Events is the suffix of
	// the run's raw train, and Dropped events preceded it.
	Truncated bool `json:"truncated,omitempty"`
	// Dropped counts events evicted from the ring before capture.
	Dropped uint64 `json:"dropped,omitempty"`
	// Events is the captured raw event train, in arrival order.
	Events []trace.Event `json:"events"`
}

// Recorder is the in-memory ring. It implements trace.Listener;
// register it alongside the auditor so it sees the same
// (post-fault-injection) event stream the detectors see. A delivered
// batch is copied into the ring, never retained.
type Recorder struct {
	buf     []trace.Event
	head    int // index of the oldest entry when full
	n       int
	dropped uint64
}

// DefaultCapacity holds roughly one paper observation window of
// deduplicated conflict activity plus contention events around it.
const DefaultCapacity = 65536

// New builds a recorder holding the last capacity events (<=0 selects
// DefaultCapacity).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]trace.Event, capacity)}
}

// OnEvents implements trace.Listener.
func (r *Recorder) OnEvents(events []trace.Event) {
	for _, e := range events {
		if r.n < len(r.buf) {
			r.buf[(r.head+r.n)%len(r.buf)] = e
			r.n++
			continue
		}
		r.buf[r.head] = e
		r.head = (r.head + 1) % len(r.buf)
		r.dropped++
	}
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int { return r.n }

// Dropped reports how many events have been evicted so far.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Capture snapshots the ring into a Flight. The recorder keeps
// recording; capture does not drain it.
func (r *Recorder) Capture(reason string, meta Meta) Flight {
	events := make([]trace.Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		events = append(events, r.buf[(r.head+i)%len(r.buf)])
	}
	return Flight{
		Schema:    FlightSchema,
		Reason:    reason,
		Meta:      meta,
		Truncated: r.dropped > 0,
		Dropped:   r.dropped,
		Events:    events,
	}
}

// Write serializes the flight as indented JSON.
func (f Flight) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteFile serializes the flight to path.
func (f Flight) WriteFile(path string) error {
	tmp, err := os.CreateTemp("", "flight-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := f.Write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Read parses a flight and validates its schema.
func Read(r io.Reader) (Flight, error) {
	var f Flight
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return f, fmt.Errorf("recorder: parsing flight: %w", err)
	}
	if f.Schema != FlightSchema {
		return f, fmt.Errorf("recorder: unsupported flight schema %q (want %q)", f.Schema, FlightSchema)
	}
	if f.Meta.QuantumCycles == 0 {
		return f, fmt.Errorf("recorder: flight has no quantum")
	}
	return f, nil
}

// ReadFile parses a flight file.
func ReadFile(path string) (Flight, error) {
	file, err := os.Open(path)
	if err != nil {
		return Flight{}, err
	}
	defer file.Close()
	return Read(file)
}
