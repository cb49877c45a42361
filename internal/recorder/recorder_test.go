package recorder

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"cchunter/internal/trace"
)

func ev(c uint64) trace.Event {
	return trace.Event{Cycle: c, Kind: trace.KindBusLock, Actor: uint8(c % 4)}
}

func TestRecorderRingOrder(t *testing.T) {
	r := New(4)
	for c := uint64(1); c <= 3; c++ {
		r.OnEvents([]trace.Event{ev(c)})
	}
	f := r.Capture("test", Meta{QuantumCycles: 100})
	if f.Truncated || f.Dropped != 0 {
		t.Errorf("under-capacity capture marked truncated (%v, %d)", f.Truncated, f.Dropped)
	}
	got := make([]uint64, len(f.Events))
	for i, e := range f.Events {
		got[i] = e.Cycle
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("events = %v, want [1 2 3]", got)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := New(4)
	r.OnEvents([]trace.Event{ev(1), ev(2), ev(3), ev(4), ev(5), ev(6)})
	if r.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	f := r.Capture("test", Meta{QuantumCycles: 100})
	if !f.Truncated || f.Dropped != 2 {
		t.Errorf("wrapped capture not marked truncated (%v, %d)", f.Truncated, f.Dropped)
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if f.Events[i].Cycle != want {
			t.Errorf("event %d cycle = %d, want %d (oldest-first order lost)", i, f.Events[i].Cycle, want)
		}
	}
	// Capture must not drain: a second capture sees the same ring.
	f2 := r.Capture("again", Meta{QuantumCycles: 100})
	if len(f2.Events) != 4 {
		t.Errorf("second capture holds %d events, want 4", len(f2.Events))
	}
}

func TestFlightFileRoundtrip(t *testing.T) {
	r := New(8)
	r.OnEvents([]trace.Event{ev(10), ev(20), ev(30)})
	f := r.Capture("detection", Meta{
		Seed: 3, QuantumCycles: 2_500_000, Contexts: 8,
		ObservationDivisor: 2, EndCycle: 99,
	})
	path := filepath.Join(t.TempDir(), "flight.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(f)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Errorf("roundtrip changed the flight:\n%s\n%s", a, b)
	}
}

func TestReadRejectsBadFlights(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schema":"other/9","meta":{"quantumCycles":1}}`)); err == nil {
		t.Error("foreign schema accepted")
	}
	if _, err := Read(strings.NewReader(`{"schema":"cchunter-flight/1","meta":{}}`)); err == nil {
		t.Error("flight without a quantum accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestReplayDeterministic: two replays of the same synthetic flight
// produce identical reports, batch and streaming replays agree on the
// verdict fields, and replay of an empty flight is well-formed.
func TestReplayDeterministic(t *testing.T) {
	r := New(0)
	rng := uint64(0x9e3779b97f4a7c15)
	var cycle uint64
	for i := 0; i < 5000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		cycle += rng % 2000
		e := trace.Event{Cycle: cycle, Actor: uint8(rng % 4), Victim: uint8((rng >> 8) % 4)}
		switch rng % 3 {
		case 0:
			e.Kind = trace.KindBusLock
		case 1:
			e.Kind = trace.KindDivContention
		default:
			e.Kind = trace.KindConflictMiss
			e.Unit = uint32(rng>>16) % 64
		}
		r.OnEvents([]trace.Event{e})
	}
	f := r.Capture("test", Meta{
		QuantumCycles: 100_000, Contexts: 4, ObservationDivisor: 1, EndCycle: cycle + 1,
	})

	rep1, err := Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep1)
	b, _ := json.Marshal(rep2)
	if !bytes.Equal(a, b) {
		t.Error("two replays differ")
	}

	repS, err := ReplayStreaming(f)
	if err != nil {
		t.Fatal(err)
	}
	if repS.Streaming == nil {
		t.Error("streaming replay has no streaming info")
	}
	repS.Streaming = nil
	c, _ := json.Marshal(repS)
	if !bytes.Equal(a, c) {
		t.Errorf("streaming replay diverged from batch replay:\n%s\n%s", a, c)
	}

	empty := Flight{Schema: FlightSchema, Meta: Meta{QuantumCycles: 100_000, Contexts: 4}}
	if _, err := Replay(empty); err != nil {
		t.Errorf("empty flight replay failed: %v", err)
	}
}

// TestReplayCarriesShedCount pins that a flight recorded under load
// shedding replays with the live run's shed count in its verdict: the
// replayed report must state the same reduced evidence base the live
// one did, and the count must survive the file round-trip.
func TestReplayCarriesShedCount(t *testing.T) {
	r := New(0)
	var cycle uint64
	for i := 0; i < 200; i++ {
		cycle += 1_000
		r.OnEvents([]trace.Event{{Cycle: cycle, Kind: trace.KindBusLock}})
	}
	f := r.Capture("detection", Meta{
		QuantumCycles: 100_000, Contexts: 4, ObservationDivisor: 1,
		EndCycle: cycle + 1, EventsShed: 37,
	})

	path := filepath.Join(t.TempDir(), "shed.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.EventsShed != 37 {
		t.Fatalf("EventsShed lost in round-trip: %d", got.Meta.EventsShed)
	}

	rep, err := ReplayStreaming(got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Streaming == nil || rep.Streaming.EventsShed != 37 {
		t.Errorf("replayed verdict does not carry the live shed count: %+v", rep.Streaming)
	}

	// A clean flight's replay must not invent one.
	clean := r.Capture("detection", Meta{
		QuantumCycles: 100_000, Contexts: 4, ObservationDivisor: 1, EndCycle: cycle + 1,
	})
	repClean, err := ReplayStreaming(clean)
	if err != nil {
		t.Fatal(err)
	}
	if repClean.Streaming != nil && repClean.Streaming.EventsShed != 0 {
		t.Errorf("clean replay invented shed events: %d", repClean.Streaming.EventsShed)
	}
}
