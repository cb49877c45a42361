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
// requires the runs to be byte-identical: the spy's raw samples and the
// full raw event train. A trojan or spy whose Step
// assigns only some fields of *op executes ops that carry the poison in
// the fields it left, and the runs diverge.
func TestStepWritesWholeOpSlot(t *testing.T) {
	type outcome struct {
		samples []uint64
		events  []trace.Event
	}
	run := func(spec Spec, poison bool) outcome {
		cfg := sim.TestConfig()
		if spec.Ring {
			cfg.Ring = ring.DefaultConfig()
		}
		s := sim.MustNew(cfg)
		rec := trace.NewRecorder()
		s.AddListener(rec)
		spawn := func(p sim.Program, ctx int) {
			if poison {
				p = &poisonedSlot{p}
			}
			s.Spawn(p, sim.Pin(ctx))
		}
		// The cache channel's prime/probe rounds need a longer slot.
		bps := 25_000.0
		if spec.Oscillatory() {
			bps = 2_000
		}
		msg := RandomMessage(12, 11)
		trojan, spy := spec.New(Params{
			Protocol:  Protocol{Message: msg, BPS: bps, Seed: 1},
			CacheSets: 256,
		})
		spawn(trojan, spec.TrojanCtx)
		spawn(spy, spec.SpyCtx)
		// Four spare slots cover the TLB channel's trailing symbol and
		// the cache channel's warm-up slot.
		s.Run(uint64(len(msg)+4) * cfg.CyclesPerBit(bps))
		return outcome{spy.Samples(), rec.Train().Events()}
	}
	for _, spec := range Table {
		t.Run(spec.Name, func(t *testing.T) {
			plain := run(spec, false)
			poisoned := run(spec, true)
			if !reflect.DeepEqual(plain.samples, poisoned.samples) {
				t.Errorf("spy samples differ: plain %v vs poisoned %v", plain.samples, poisoned.samples)
			}
			if !reflect.DeepEqual(plain.events, poisoned.events) {
				t.Errorf("event trains differ: plain %d events vs poisoned %d",
					len(plain.events), len(poisoned.events))
			}
			if len(plain.events) == 0 || len(plain.samples) == 0 {
				t.Fatal("no events or samples recorded; the comparison is vacuous")
			}
		})
	}
}
