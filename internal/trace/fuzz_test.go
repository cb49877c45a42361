package trace_test

import (
	"encoding/binary"
	"testing"

	"cchunter/internal/faults"
	"cchunter/internal/trace"
)

// decodeEvents turns fuzz bytes into an arbitrary (not necessarily
// ordered) event stream: 5 bytes per event — a 4-byte cycle delta
// applied signed-ish plus a control byte for kind/contexts.
func decodeEvents(data []byte) []trace.Event {
	var out []trace.Event
	var cycle uint64
	for len(data) >= 5 {
		delta := uint64(binary.LittleEndian.Uint32(data[:4]))
		ctl := data[4]
		data = data[5:]
		if ctl&0x80 != 0 && delta <= cycle {
			cycle -= delta // out-of-order arrivals included on purpose
		} else {
			cycle += delta % 100_000
		}
		victim := (ctl >> 3) & 0x07
		if ctl&0x40 != 0 {
			victim = trace.NoContext
		}
		out = append(out, trace.Event{
			Cycle:  cycle,
			Kind:   trace.Kind(int(ctl) % trace.NumKinds()),
			Actor:  ctl & 0x07,
			Victim: victim,
			Unit:   uint32(delta % 512),
		})
	}
	return out
}

// clampedTrain ingests a stream through Train.AppendClamped, the
// degraded-path entry point.
type clampedTrain struct {
	tr      *trace.Train
	clamped int
}

func (c *clampedTrain) OnEvents(events []trace.Event) {
	for _, e := range events {
		if c.tr.AppendClamped(e) {
			c.clamped++
		}
	}
}

// FuzzTrainIngest asserts train ingestion of arbitrary — jittered,
// reordered, duplicated, corrupted — event streams never panics and
// always yields a monotonic train with sane derived statistics. The
// seed corpus routes a clean stream through the fault injector in each
// of its corruption modes.
func FuzzTrainIngest(f *testing.F) {
	encode := func(events []trace.Event) []byte {
		var out []byte
		var prev uint64
		for _, e := range events {
			var rec [5]byte
			binary.LittleEndian.PutUint32(rec[:4], uint32(e.Cycle-prev))
			prev = e.Cycle
			rec[4] = byte(e.Kind) | e.Actor&0x07 | (e.Victim&0x07)<<3
			out = append(out, rec[:]...)
		}
		return out
	}
	clean := make([]trace.Event, 200)
	for i := range clean {
		clean[i] = trace.Event{Cycle: uint64(i) * 500, Kind: trace.KindConflictMiss, Actor: uint8(i % 4), Victim: uint8((i + 1) % 4)}
	}
	for _, cfg := range []faults.Config{
		{},
		{JitterCycles: 400, Seed: 3},
		{ReorderProb: 0.3, Seed: 4},
		{DupProb: 0.3, Seed: 5},
		{CtxFlipProb: 0.5, CtxSmearProb: 0.5, Seed: 6},
		{DropProb: 0.4, Seed: 7},
	} {
		var c clampedTrain
		c.tr = trace.NewTrain(0)
		in, err := faults.NewInjector(cfg, &c)
		if err != nil {
			f.Fatal(err)
		}
		in.OnEvents(clean)
		in.Flush()
		f.Add(encode(c.tr.Events()))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeEvents(data)
		c := clampedTrain{tr: trace.NewTrain(0)}
		c.OnEvents(events)
		if c.tr.Len() != len(events) {
			t.Fatalf("train len %d, ingested %d", c.tr.Len(), len(events))
		}
		for i := 1; i < c.tr.Len(); i++ {
			if c.tr.At(i).Cycle < c.tr.At(i-1).Cycle {
				t.Fatalf("train not monotonic at %d", i)
			}
		}
		if c.tr.Len() == 0 {
			return
		}
		first, last := c.tr.Span()
		if first > last {
			t.Fatalf("span [%d, %d] inverted", first, last)
		}
		// Derived views must hold up on arbitrary trains.
		densities := c.tr.Densities(first, last+1, 1000, true)
		var total int
		for _, d := range densities {
			if d < 0 {
				t.Fatalf("negative density %d", d)
			}
			total += d
		}
		if total != c.tr.Len() {
			t.Fatalf("densities sum %d, want %d", total, c.tr.Len())
		}
		if w := c.tr.Window(first, last+1); w.Len() != c.tr.Len() {
			t.Fatalf("full window len %d, want %d", w.Len(), c.tr.Len())
		}
		for _, iv := range c.tr.InterEventIntervals() {
			if iv > last-first {
				t.Fatalf("interval %d wider than span", iv)
			}
		}
	})
}
