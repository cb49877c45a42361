package faults

import (
	"errors"
	"reflect"
	"testing"

	"cchunter/internal/trace"
)

// collector records everything the injector delivers.
type collector struct {
	events []trace.Event
}

func (c *collector) OnEvent(e trace.Event) { c.events = append(c.events, e) }

// stream builds n bus-lock events spaced `gap` cycles apart.
func stream(n int, gap uint64) []trace.Event {
	out := make([]trace.Event, n)
	for i := range out {
		out[i] = trace.Event{
			Cycle: uint64(i) * gap,
			Kind:  trace.KindBusLock,
			Actor: uint8(i % 4),
			Victim: func() uint8 {
				if i%2 == 0 {
					return uint8((i + 1) % 4)
				}
				return trace.NoContext
			}(),
		}
	}
	return out
}

func inject(t *testing.T, cfg Config, events []trace.Event) (*collector, Stats) {
	t.Helper()
	var c collector
	in, err := NewInjector(cfg, &c)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	for _, e := range events {
		in.OnEvent(e)
	}
	in.Flush()
	return &c, in.Stats()
}

func TestPassThroughIsTransparent(t *testing.T) {
	// A non-zero config whose only fault can never engage (a saturating
	// counter too wide to fill) must deliver every event unchanged — the
	// transparency guarantee the simulator relies on.
	events := stream(500, 100)
	c, st := inject(t, Config{SaturateWindow: 1, SaturateMax: 1 << 30}, events)
	if !reflect.DeepEqual(c.events, events) {
		t.Fatal("pass-through injector altered the stream")
	}
	corrupted := st.Jittered + st.Duplicated + st.Reordered + st.CtxFlipped + st.CtxSmeared
	if st.Seen != 500 || st.Delivered != 500 || st.Lost() != 0 || corrupted != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestUniformDropRateAndDeterminism(t *testing.T) {
	events := stream(10_000, 50)
	c1, st := inject(t, Config{DropProb: 0.1, Seed: 7}, events)
	if st.Dropped == 0 {
		t.Fatal("no drops at 10%")
	}
	rate := st.LossRate()
	if rate < 0.05 || rate > 0.15 {
		t.Errorf("loss rate %.3f far from 0.1", rate)
	}
	if got := uint64(len(c1.events)); got != st.Delivered {
		t.Errorf("delivered %d but collected %d", st.Delivered, got)
	}
	// Same config, same stream: identical output.
	c2, _ := inject(t, Config{DropProb: 0.1, Seed: 7}, events)
	if !reflect.DeepEqual(c1.events, c2.events) {
		t.Error("same seed produced different streams")
	}
	// Different seed: different drops.
	c3, _ := inject(t, Config{DropProb: 0.1, Seed: 8}, events)
	if reflect.DeepEqual(c1.events, c3.events) {
		t.Error("different seed produced identical streams")
	}
}

func TestBurstDropIsConsecutive(t *testing.T) {
	events := stream(5_000, 10)
	_, st := inject(t, Config{BurstDropProb: 0.01, BurstLen: 16, Seed: 3}, events)
	if st.DroppedBurst == 0 {
		t.Fatal("no burst drops")
	}
	// Bursts drop in units of up to BurstLen; with 5000 events and p=1%
	// the expected count is far above one burst length.
	if st.DroppedBurst < 16 {
		t.Errorf("burst drops = %d, want >= one full burst", st.DroppedBurst)
	}
}

func TestTruncationGoesDark(t *testing.T) {
	events := stream(100, 1000) // cycles 0..99k
	c, st := inject(t, Config{TruncateAfter: 50_000}, events)
	if len(c.events) != 50 {
		t.Fatalf("delivered %d, want 50", len(c.events))
	}
	for _, e := range c.events {
		if e.Cycle >= 50_000 {
			t.Fatalf("event at %d past truncation", e.Cycle)
		}
	}
	if st.Truncated != 50 {
		t.Errorf("truncated = %d", st.Truncated)
	}
}

func TestSaturationCapsPerWindow(t *testing.T) {
	// 10 events per 1000-cycle window, cap at 3: 3 survive per window.
	var events []trace.Event
	for w := 0; w < 5; w++ {
		for i := 0; i < 10; i++ {
			events = append(events, trace.Event{
				Cycle: uint64(w)*1000 + uint64(i)*10,
				Kind:  trace.KindBusLock, Actor: 0, Victim: trace.NoContext,
			})
		}
	}
	c, st := inject(t, Config{SaturateWindow: 1000, SaturateMax: 3}, events)
	if len(c.events) != 15 {
		t.Fatalf("delivered %d, want 15", len(c.events))
	}
	if st.Saturated != 35 {
		t.Errorf("saturated = %d, want 35", st.Saturated)
	}
}

func TestJitterStaysBoundedAndClamped(t *testing.T) {
	events := stream(2_000, 1000)
	c, st := inject(t, Config{JitterCycles: 200, Seed: 5}, events)
	if st.Jittered == 0 {
		t.Fatal("no jitter applied")
	}
	for i, e := range c.events {
		orig := events[i].Cycle
		lo := uint64(0)
		if orig > 200 {
			lo = orig - 200
		}
		if e.Cycle < lo || e.Cycle > orig+200 {
			t.Fatalf("event %d jittered from %d to %d, outside ±200", i, orig, e.Cycle)
		}
	}
}

func TestDuplicationDelivers(t *testing.T) {
	events := stream(5_000, 10)
	c, st := inject(t, Config{DupProb: 0.1, Seed: 2}, events)
	if st.Duplicated == 0 {
		t.Fatal("no duplicates")
	}
	if uint64(len(c.events)) != st.Seen+st.Duplicated {
		t.Errorf("collected %d, want %d", len(c.events), st.Seen+st.Duplicated)
	}
}

func TestReorderSwapsAdjacentAndFlushes(t *testing.T) {
	events := stream(1_000, 100)
	c, st := inject(t, Config{ReorderProb: 0.2, Seed: 9}, events)
	if st.Reordered == 0 {
		t.Fatal("no reorders")
	}
	// Reordering is depth-one: no event is displaced by more than one
	// delivery slot, and Flush released any trailing held event.
	if uint64(len(c.events)) != st.Seen {
		t.Fatalf("collected %d of %d (held event not flushed?)", len(c.events), st.Seen)
	}
	for i := 1; i < len(c.events); i++ {
		if prev := c.events[i-1].Cycle; c.events[i].Cycle+200 < prev {
			t.Fatalf("event %d displaced more than one slot: %d after %d", i, c.events[i].Cycle, prev)
		}
	}
}

func TestContextCorruption(t *testing.T) {
	events := stream(4_000, 10)
	c, st := inject(t, Config{CtxFlipProb: 0.3, CtxSmearProb: 0.3, Seed: 11}, events)
	if st.CtxFlipped == 0 || st.CtxSmeared == 0 {
		t.Fatalf("no corruption: %+v", st)
	}
	// Events with Victim == NoContext are never flipped or smeared.
	for i, e := range c.events {
		if events[i].Victim == trace.NoContext && e != events[i] {
			t.Fatalf("pairless event %d corrupted: %+v -> %+v", i, events[i], e)
		}
	}
}

func TestValidateRejectsBadKnobs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"prob > 1":             {DropProb: 1.5},
		"negative prob":        {DupProb: -0.1},
		"negative burst len":   {BurstDropProb: 0.1, BurstLen: -1},
		"sat max no window":    {SaturateMax: 5},
		"negative sat":         {SaturateWindow: 10, SaturateMax: -1},
		"reorder out of range": {ReorderProb: 2},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		} else if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: %v does not wrap ErrBadConfig", name, err)
		}
	}
	if _, err := NewInjector(Config{DropProb: 0.5}, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil listener: %v", err)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	cfg, err := ParseSpec("drop=0.05, jitter=200, burstdrop=0.01, burstlen=4, seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{DropProb: 0.05, JitterCycles: 200, BurstDropProb: 0.01, BurstLen: 4, Seed: 7}
	if cfg != want {
		t.Errorf("parsed %+v, want %+v", cfg, want)
	}
	// String renders a spec ParseSpec accepts back to the same config
	// (seed excepted: it is not part of the fault fingerprint).
	back, err := ParseSpec(cfg.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", cfg.String(), err)
	}
	cfg.Seed, back.Seed = 0, 0
	if back != cfg {
		t.Errorf("round trip %+v != %+v", back, cfg)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for name, spec := range map[string]string{
		"unknown key": "warp=0.5",
		"no value":    "drop",
		"bad float":   "drop=abc",
		"negative":    "jitter=-5",
		"over range":  "drop=1.5",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("%s (%q): expected error", name, spec)
		} else if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: %v does not wrap ErrBadConfig", name, err)
		}
	}
}

func TestIsZeroAndString(t *testing.T) {
	if !(Config{}).IsZero() || !(Config{Seed: 5}).IsZero() {
		t.Error("zero/seed-only configs must be zero")
	}
	if (Config{DropProb: 0.1}).IsZero() {
		t.Error("drop config is not zero")
	}
	// Saturation needs both knobs to engage.
	if !(Config{SaturateWindow: 100}).IsZero() {
		t.Error("window without max injects nothing")
	}
	if got := (Config{}).String(); got != "none" {
		t.Errorf("zero config renders %q", got)
	}
}

func TestBatchedDeliveryMatchesPerEvent(t *testing.T) {
	// Batched delivery is a pure amortization: the fault state machine
	// runs over each event in order either way, so the delivered
	// sequence, every RNG draw, and the counters must be identical at
	// any batch size — including sizes that split drop bursts and
	// reorder holds across batch boundaries.
	cfg := Config{
		DropProb:      0.05,
		BurstDropProb: 0.01,
		BurstLen:      4,
		JitterCycles:  50,
		DupProb:       0.03,
		ReorderProb:   0.05,
		CtxFlipProb:   0.02,
		CtxSmearProb:  0.02,
		Seed:          7,
	}
	events := stream(2000, 100)

	perEvent, perStats := inject(t, cfg, events)

	for _, batch := range []int{1, 3, 64, 512, len(events)} {
		var c collector
		in, err := NewInjector(cfg, &c)
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		for lo := 0; lo < len(events); lo += batch {
			hi := lo + batch
			if hi > len(events) {
				hi = len(events)
			}
			in.OnEvents(events[lo:hi])
		}
		in.Flush()
		if !reflect.DeepEqual(c.events, perEvent.events) {
			t.Errorf("batch=%d: delivered stream differs from per-event path (%d vs %d events)",
				batch, len(c.events), len(perEvent.events))
		}
		if in.Stats() != perStats {
			t.Errorf("batch=%d: stats differ: %+v vs %+v", batch, in.Stats(), perStats)
		}
	}
}
