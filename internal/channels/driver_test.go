package channels

import (
	"reflect"
	"testing"

	"cchunter/internal/ring"
	"cchunter/internal/sim"
	"cchunter/internal/trace"
)

// poisonedSlot fills the op slot with garbage before every Step. The
// Stepper contract makes Step overwrite every field of *op, so a
// stepper that sets only some of them executes a corrupted op and its
// run diverges from the unwrapped one.
type poisonedSlot struct{ sim.Stepper }

var poisonAddrs = []uint64{^uint64(0), 1 << 40}

func (p *poisonedSlot) Run(m *sim.Machine) { sim.RunSteps(p, m) }

func (p *poisonedSlot) Step(prev sim.OpResult, op *sim.Op) bool {
	*op = sim.Op{Kind: sim.OpWaitUntil, Addr: ^uint64(0), Addrs: poisonAddrs, Cycles: 1 << 62, Count: 3}
	return p.Stepper.Step(prev, op)
}

// TestDriversProduceIdenticalChannels is the step engine's
// differential test: every covert channel run under the coroutine-free
// step driver must be byte-identical — decoded bits, per-bit
// observables, and the full raw event train — to the same run under
// the legacy goroutine reference driver. The two drivers execute the
// identical op stream through the identical engine core, so any
// divergence is a conversion bug in a Stepper state machine. A third
// run, with every op slot poisoned before each Step, must match too.
func TestDriversProduceIdenticalChannels(t *testing.T) {
	type outcome struct {
		decoded []int
		series  []float64
		events  []trace.Event
	}
	run := func(channel string, driver sim.Driver, poison bool) outcome {
		cfg := sim.TestConfig()
		cfg.Driver = driver
		if channel == "ring" {
			cfg.Ring = ring.DefaultConfig()
		}
		s := sim.MustNew(cfg)
		defer s.Close()
		rec := trace.NewRecorder()
		s.AddListener(rec)
		msg := RandomMessage(12, 11)
		spawn := func(p sim.Stepper, ctx int) {
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
			step := run(channel, sim.DriverStep, false)
			ref := run(channel, sim.DriverGoroutine, false)
			poisoned := run(channel, sim.DriverStep, true)
			if !reflect.DeepEqual(step, poisoned) {
				t.Errorf("a stepper leaves part of its op slot unwritten: poisoned-slot run differs")
			}
			if !reflect.DeepEqual(step.decoded, ref.decoded) {
				t.Errorf("decoded bits differ: step %v vs goroutine %v",
					step.decoded, ref.decoded)
			}
			if !reflect.DeepEqual(step.series, ref.series) {
				t.Errorf("per-bit series differ between drivers")
			}
			if !reflect.DeepEqual(step.events, ref.events) {
				t.Errorf("event trains differ: step %d events vs goroutine %d",
					len(step.events), len(ref.events))
			}
			if len(step.events) == 0 {
				t.Fatal("no events recorded; differential test is vacuous")
			}
		})
	}
}
