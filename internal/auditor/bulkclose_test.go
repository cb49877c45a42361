package auditor

import (
	"reflect"
	"testing"

	"cchunter/internal/obs"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// advanceRef is the per-window walk that slot.advance's bulk close
// must reproduce: one closeWindow per Δt window.
func advanceRef(s *slot, cycle uint64) {
	for cycle >= s.windowStart+s.deltaT {
		s.closeWindow()
	}
}

// onEventRef is slot.onEvent over advanceRef.
func onEventRef(s *slot, cycle uint64) {
	advanceRef(s, cycle)
	if s.accum < ^uint16(0) {
		s.accum++
	} else {
		s.satThisWin = true
	}
}

// slotScript is one differential run: a slot geometry, an ascending
// event stream and the cycle the run is flushed at.
type slotScript struct {
	deltaT, quantum uint64
	bins            int
	events          []uint64
	flush           uint64
}

// checkBulkClose drives the script through three instrumented
// auditors: the batched OnEvents path, the per-event OnEvent path and
// the per-window reference. Every slot field, every recorded and open
// histogram (bins, clamped and invalid tallies) and every registry
// metric must agree.
func checkBulkClose(t *testing.T, sc slotScript) {
	t.Helper()
	cfg := Config{HistogramBins: sc.bins, VectorBytes: 8, QuantumCycles: sc.quantum, Privileged: true}
	build := func() (*Auditor, *obs.Registry) {
		a := MustNew(cfg)
		if err := a.Monitor(trace.KindBusLock, sc.deltaT); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		a.Instrument(reg)
		return a, reg
	}
	batched, batchedReg := build()
	single, singleReg := build()
	ref, refReg := build()
	events := make([]trace.Event, len(sc.events))
	for i, c := range sc.events {
		events[i] = busEvent(c)
		single.OnEvent(events[i])
		onEventRef(ref.slots[0], c)
	}
	batched.OnEvents(events)
	ref.mEvents.Add(uint64(len(events)))
	batched.Flush(sc.flush)
	single.Flush(sc.flush)
	advanceRef(ref.slots[0], sc.flush)
	ref.slots[0].flushMetrics()

	want := slotState(ref.slots[0])
	for name, a := range map[string]*Auditor{"OnEvents": batched, "OnEvent": single} {
		if got := slotState(a.slots[0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: slot state differs from the per-window walk\n got  %+v\n want %+v", name, got, want)
		}
	}
	for name, reg := range map[string]*obs.Registry{"OnEvents": batchedReg, "OnEvent": singleReg} {
		if got, want := reg.Snapshot(), refReg.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: metrics differ from the per-window walk\n got  %+v\n want %+v", name, got, want)
		}
	}
}

// histState is a histogram's full contents.
type histState struct {
	Bins             []uint64
	Clamped, Invalid uint64
}

func histOf(h *stats.Histogram) histState {
	return histState{Bins: h.Bins(), Clamped: h.Clamped(), Invalid: h.Invalid()}
}

// slotFields is every piece of a slot's counting state.
type slotFields struct {
	Accum                uint16
	WindowStart, Quantum uint64
	Windows, Saturations uint64
	SatThisWin           bool
	DrainedClamped       uint64
	RecordQuanta         []uint64
	Records              []histState
	Open                 histState
	DensityAcc           []uint64
	WinAcc               uint64
}

func slotState(s *slot) slotFields {
	f := slotFields{
		Accum: s.accum, WindowStart: s.windowStart, Quantum: s.quantum,
		Windows: s.windows, Saturations: s.saturations, SatThisWin: s.satThisWin,
		DrainedClamped: s.drainedClamped, Open: histOf(s.hist),
		DensityAcc: append([]uint64(nil), s.densityAcc...), WinAcc: s.winAcc,
	}
	for _, rec := range s.records {
		f.RecordQuanta = append(f.RecordQuanta, rec.Quantum)
		f.Records = append(f.Records, histOf(rec.Hist))
	}
	return f
}

func TestBulkCloseMatchesPerWindowWalk(t *testing.T) {
	saturating := make([]uint64, 70000) // > 2^16 events in one window
	for i := range saturating {
		saturating[i] = 50
	}
	cases := map[string]slotScript{
		"sparse across quantum rolls": {deltaT: 100, quantum: 1000, bins: 128,
			events: []uint64{5, 7, 2500, 2510, 9000, 9999, 10000, 25003}, flush: 40000},
		"deltaT does not divide the quantum": {deltaT: 300, quantum: 1000, bins: 8,
			events: []uint64{10, 1290, 1299, 1300, 5001, 5002, 12345}, flush: 30001},
		"saturated window before a gap": {deltaT: 100, quantum: 1000, bins: 8,
			events: append(saturating, 5000, 5001), flush: 9000},
		"flush far past the last event": {deltaT: 7, quantum: 1000, bins: 16,
			events: []uint64{3, 20, 21}, flush: 1_000_003},
		"deltaT longer than the quantum": {deltaT: 2500, quantum: 1000, bins: 8,
			events: []uint64{1, 2600, 2601, 9000}, flush: 31000},
		"deltaT equal to the quantum": {deltaT: 1000, quantum: 1000, bins: 8,
			events: []uint64{0, 999, 1000, 7777}, flush: 20000},
		"no events": {deltaT: 64, quantum: 4096, bins: 128, flush: 100_000},
	}
	for name, sc := range cases {
		t.Run(name, func(t *testing.T) { checkBulkClose(t, sc) })
	}
	r := stats.NewRNG(22)
	for c := 0; c < 300; c++ {
		sc := slotScript{
			deltaT:  1 + uint64(r.Intn(400)),
			quantum: 1 + uint64(r.Intn(5000)),
			bins:    1 + r.Intn(16),
		}
		var cycle uint64
		for i, n := 0, r.Intn(60); i < n; i++ {
			if r.Intn(3) == 0 {
				cycle += uint64(r.Intn(20000)) // a quiet stretch
			} else {
				cycle += uint64(r.Intn(50))
			}
			sc.events = append(sc.events, cycle)
		}
		sc.flush = cycle + uint64(r.Intn(50000))
		checkBulkClose(t, sc)
	}
}

// FuzzBulkCloseMatchesPerWindowWalk drives checkBulkClose with fuzzed
// geometry and event gaps: each byte of gaps is one event, its low
// bits the distance from the previous one and its top bit a switch to
// a long quiet stretch.
func FuzzBulkCloseMatchesPerWindowWalk(f *testing.F) {
	f.Add(uint16(100), uint16(1000), uint8(128), []byte{5, 2, 0xff, 0x80, 1, 0x90}, uint32(40000))
	f.Add(uint16(300), uint16(1000), uint8(8), []byte{10, 0xc0, 9, 1, 0xa0}, uint32(100000))
	f.Add(uint16(2500), uint16(1000), uint8(4), []byte{1, 0x85, 1}, uint32(31000))
	f.Add(uint16(1), uint16(1), uint8(1), []byte{0, 0, 3}, uint32(10))
	f.Fuzz(func(t *testing.T, deltaT, quantum uint16, bins uint8, gaps []byte, flushGap uint32) {
		if deltaT == 0 || quantum == 0 || len(gaps) > 512 {
			return
		}
		sc := slotScript{deltaT: uint64(deltaT), quantum: uint64(quantum), bins: 1 + int(bins%64)}
		var cycle uint64
		for _, g := range gaps {
			if g&0x80 != 0 {
				cycle += uint64(g&0x7f) * 997
			} else {
				cycle += uint64(g)
			}
			sc.events = append(sc.events, cycle)
		}
		// Bound the reference walk to a million windows.
		sc.flush = cycle + uint64(flushGap)%(uint64(deltaT)<<20)
		if (sc.flush+1)/sc.deltaT > 1<<20 {
			return
		}
		checkBulkClose(t, sc)
	})
}
