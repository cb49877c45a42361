package channels

import (
	"reflect"
	"testing"

	"cchunter/internal/ring"
	"cchunter/internal/sim"
	"cchunter/internal/trace"
)

// poisonedSlot fills the op slot with garbage before every Step. The
// Program contract makes Step overwrite every field of *op, so a
// program that sets only some of them executes a corrupted op and its
// run diverges from the unwrapped one.
type poisonedSlot struct{ sim.Program }

var poisonAddrs = []uint64{^uint64(0), 1 << 40}

func (p *poisonedSlot) Step(prev sim.OpResult, op *sim.Op) bool {
	*op = sim.Op{Kind: sim.OpWaitUntil, Addr: ^uint64(0), Addrs: poisonAddrs, Cycles: 1 << 62, Count: 3}
	return p.Program.Step(prev, op)
}

// TestStepWritesWholeOpSlot runs every covert channel twice, once
// plainly and once with every op slot poisoned before each Step, and
// requires the runs to be byte-identical: decoded bits, per-bit
// observables and the full raw event train. A trojan or spy whose Step
// assigns only some fields of *op executes ops that carry the poison in
// the fields it left, and the runs diverge.
func TestStepWritesWholeOpSlot(t *testing.T) {
	type outcome struct {
		decoded []int
		series  []float64
		events  []trace.Event
	}
	run := func(channel string, poison bool) outcome {
		cfg := sim.TestConfig()
		if channel == "ring" {
			cfg.Ring = ring.DefaultConfig()
		}
		s := sim.MustNew(cfg)
		rec := trace.NewRecorder()
		s.AddListener(rec)
		msg := RandomMessage(12, 11)
		spawn := func(p sim.Program, ctx int) {
			if poison {
				p = &poisonedSlot{p}
			}
			s.Spawn(p, sim.Pin(ctx))
		}
		var dur uint64
		var decoded func() []int
		var series func() []float64
		switch channel {
		case "bus":
			c := DefaultBusConfig(msg, 25_000)
			spy := NewBusSpy(c)
			spawn(NewBusTrojan(c), 0)
			spawn(spy, 2)
			dur = uint64(len(msg)+1) * c.slotCycles(s.Geometry())
			decoded, series = spy.Decoded, spy.PerBitLatency
		case "div":
			c := DefaultDivConfig(msg, 25_000)
			spy := NewDivSpy(c)
			spawn(NewDivTrojan(c), 0)
			spawn(spy, 1)
			dur = uint64(len(msg)+1) * c.slotCycles(s.Geometry())
			decoded, series = spy.Decoded, spy.PerBitLatency
		case "cache":
			c := DefaultCacheConfig(msg, 2_000)
			c.SetsUsed = 256
			spy := NewCacheSpy(c)
			spawn(NewCacheTrojan(c), 0)
			spawn(spy, 1)
			dur = uint64(len(msg)+2) * c.slotCycles(s.Geometry())
			decoded, series = spy.Decoded, spy.PerBitRatio
		case "ring":
			c := DefaultRingConfig(msg, 25_000)
			spy := NewRingSpy(c)
			spawn(NewRingTrojan(c), 0)
			spawn(spy, 2)
			dur = uint64(len(msg)+1) * c.slotCycles(s.Geometry())
			decoded, series = spy.Decoded, spy.PerBitSlowFrac
		case "tlb":
			c := DefaultTLBConfig(msg, 25_000)
			spy := NewTLBSpy(c)
			spawn(NewTLBTrojan(c), 0)
			spawn(spy, 1)
			dur = uint64(len(msg)/c.SymbolBits+2) * c.symbolSlot(s.Geometry())
			decoded, series = spy.Decoded, spy.PerSymbolMissFrac
		}
		s.Run(dur)
		return outcome{decoded(), series(), rec.Train().Events()}
	}
	for _, channel := range []string{"bus", "div", "cache", "ring", "tlb"} {
		t.Run(channel, func(t *testing.T) {
			plain := run(channel, false)
			poisoned := run(channel, true)
			if !reflect.DeepEqual(plain.decoded, poisoned.decoded) {
				t.Errorf("decoded bits differ: plain %v vs poisoned %v", plain.decoded, poisoned.decoded)
			}
			if !reflect.DeepEqual(plain.series, poisoned.series) {
				t.Errorf("per-bit series differ with a poisoned op slot")
			}
			if !reflect.DeepEqual(plain.events, poisoned.events) {
				t.Errorf("event trains differ: plain %d events vs poisoned %d",
					len(plain.events), len(poisoned.events))
			}
			if len(plain.events) == 0 {
				t.Fatal("no events recorded; the comparison is vacuous")
			}
		})
	}
}
