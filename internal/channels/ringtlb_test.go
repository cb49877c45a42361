package channels

import (
	"reflect"
	"testing"

	"cchunter/internal/ring"
	"cchunter/internal/sim"
	"cchunter/internal/trace"
)

// ringSimConfig is the test machine with the ring interconnect
// enabled; everything else matches TestConfig.
func ringSimConfig() sim.Config {
	cfg := sim.TestConfig()
	cfg.Ring = ring.DefaultConfig()
	return cfg
}

// runRingChannel drives a ring-interconnect channel end to end and
// returns what the spy decoded and the recorded ring-contention train.
func runRingChannel(t *testing.T, p Params) (observation, *trace.Train) {
	t.Helper()
	s := sim.MustNew(ringSimConfig())
	rec := trace.NewRecorder(trace.KindRingContention)
	s.AddListener(rec)
	spy := NewRingSpy(p)
	s.Spawn(NewRingTrojan(p), sim.Pin(0))
	s.Spawn(spy, sim.Pin(2)) // different core: contention is in the ring
	slot := p.slotCycles(s.Geometry())
	s.Run(uint64(len(p.Message)+1) * slot)
	return observe(t, "ring", p, spy), rec.Train()
}

// runTLBChannel drives a TLB channel end to end and returns what the
// spy decoded and the recorded tlb-conflict train. Trojan and spy share
// core 0 as hyperthreads: the sTLB is per-core.
func runTLBChannel(t *testing.T, p Params) (observation, *trace.Train) {
	t.Helper()
	s := sim.MustNew(sim.TestConfig())
	rec := trace.NewRecorder(trace.KindTLBConflict)
	s.AddListener(rec)
	spy := NewTLBSpy(p)
	s.Spawn(NewTLBTrojan(p), sim.Pin(0))
	s.Spawn(spy, sim.Pin(1))
	slot := p.tlbSymbolSlot(s.Geometry())
	s.Run(uint64(len(p.Message)/tlbSymbolBits+2) * slot)
	return observe(t, "tlb", p, spy), rec.Train()
}

func TestRingChannelTransmits(t *testing.T) {
	msg := RandomMessage(24, 21)
	obs, train := runRingChannel(t, testParams(msg, 25_000))
	if errs := BitErrors(msg, obs.decoded); errs != 0 {
		t.Errorf("ring channel at 25 kbps: %d bit errors\nsent    %v\ndecoded %v",
			errs, msg, obs.decoded)
	}
	if train.Len() == 0 {
		t.Fatal("ring channel emitted no ring-contention events")
	}
	for _, ev := range train.Events()[:1] {
		if ev.Kind != trace.KindRingContention {
			t.Fatalf("recorded kind %v, want %v", ev.Kind, trace.KindRingContention)
		}
	}
}

func TestTLBChannelTransmits(t *testing.T) {
	msg := RandomMessage(24, 22)
	obs, train := runTLBChannel(t, testParams(msg, 25_000))
	if errs := BitErrors(msg, obs.decoded); errs != 0 {
		t.Errorf("tlb channel at 25 kbps: %d bit errors\nsent    %v\ndecoded %v",
			errs, msg, obs.decoded)
	}
	if train.Len() == 0 {
		t.Fatal("tlb channel emitted no tlb-conflict events")
	}
	if got := len(obs.series); got < len(msg)/2 {
		t.Errorf("only %d per-symbol observables for a %d-bit message", got, len(msg))
	}
}

// TestTLBChannelOddMessage pins the trailing-partial-symbol contract:
// a message whose length is not a multiple of tlbSymbolBits still decodes
// exactly, with the pad bits trimmed.
func TestTLBChannelOddMessage(t *testing.T) {
	msg := RandomMessage(13, 23)
	obs, _ := runTLBChannel(t, testParams(msg, 25_000))
	if len(obs.decoded) != len(msg) {
		t.Fatalf("decoded %d bits for a %d-bit message", len(obs.decoded), len(msg))
	}
	if errs := BitErrors(msg, obs.decoded); errs != 0 {
		t.Errorf("odd-length tlb message: %d bit errors", errs)
	}
}

func TestTLBSymbolAt(t *testing.T) {
	p := Protocol{Message: []int{1, 0, 1, 1, 1}, BPS: 1000} // 0b10, 0b11, 0b10 (pad)
	for i, want := range []int{2, 3, 2} {
		sym, done := p.tlbSymbolAt(i)
		if done || sym != want {
			t.Errorf("symbolAt(%d) = (%d, %v), want (%d, false)", i, sym, done, want)
		}
	}
	if _, done := p.tlbSymbolAt(3); !done {
		t.Error("symbolAt past the message must report done")
	}
}

// TestDecodeTLBSymbol pins the TLB rule's argmax over the per-group
// miss histogram.
func TestDecodeTLBSymbol(t *testing.T) {
	for _, tc := range []struct {
		misses []uint64
		want   int
	}{
		{nil, 0},
		{[]uint64{0, 0, 0, 0}, 0},
		{[]uint64{1, 9, 2, 3}, 1},
		{[]uint64{0, 0, 0, 7}, 3},
		{[]uint64{5, 5, 2, 5}, 0}, // ties break to the lowest group
		{[]uint64{2, 4, 4, 1}, 1},
	} {
		if got := tlbArgmax(tc.misses); got != tc.want {
			t.Errorf("tlbArgmax(%v) = %d, want %d", tc.misses, got, tc.want)
		}
	}
}

// FuzzTLBSetDecode fuzzes the spy's set-index decoding: the decoded
// symbol must index the (joint) maximum of the miss histogram, with
// ties broken toward the lowest group — the determinism the golden
// corpus pins.
func FuzzTLBSetDecode(f *testing.F) {
	f.Add(uint64(0x0102030405060708), uint8(4))
	f.Add(uint64(0), uint8(8))
	f.Add(uint64(0xffffffffffffffff), uint8(1))
	f.Fuzz(func(t *testing.T, packed uint64, nRaw uint8) {
		n := int(nRaw) % 9
		misses := make([]uint64, n)
		for g := range misses {
			misses[g] = packed >> uint(8*g) & 0xff
		}
		sym := tlbArgmax(misses)
		if sym < 0 || (n > 0 && sym >= n) || (n == 0 && sym != 0) {
			t.Fatalf("tlbArgmax(%v) = %d out of range", misses, sym)
		}
		for g, c := range misses {
			if c > misses[sym] {
				t.Fatalf("tlbArgmax(%v) = %d but group %d has more misses",
					misses, sym, g)
			}
			if g < sym && c == misses[sym] {
				t.Fatalf("tlbArgmax(%v) = %d broke the tie upward past %d",
					misses, sym, g)
			}
		}
	})
}

// TestEvaderUnitDutyIsIdentity pins the evader's zero-cost contract:
// DutyFrac 1 (full amplitude) and the zero Evader produce byte-
// identical decoded bits and event trains on both new channels.
func TestEvaderUnitDutyIsIdentity(t *testing.T) {
	msg := RandomMessage(16, 31)

	base := testParams(msg, 25_000)
	unit := base
	unit.Evader = Evader{DutyFrac: 1}
	obsA, trainA := runRingChannel(t, base)
	obsB, trainB := runRingChannel(t, unit)
	if !reflect.DeepEqual(obsA.decoded, obsB.decoded) {
		t.Error("ring: DutyFrac 1 changed the decoded bits")
	}
	if !reflect.DeepEqual(trainA.Events(), trainB.Events()) {
		t.Error("ring: DutyFrac 1 changed the event train")
	}

	tbase := testParams(msg, 25_000)
	tunit := tbase
	tunit.Evader = Evader{DutyFrac: 1}
	tobsA, ttrainA := runTLBChannel(t, tbase)
	tobsB, ttrainB := runTLBChannel(t, tunit)
	if !reflect.DeepEqual(tobsA.decoded, tobsB.decoded) {
		t.Error("tlb: DutyFrac 1 changed the decoded bits")
	}
	if !reflect.DeepEqual(ttrainA.Events(), ttrainB.Events()) {
		t.Error("tlb: DutyFrac 1 changed the event train")
	}
}

// TestEvaderPreservesFidelity checks the adaptive sender's design
// premise: moderate jitter and duty evasion degrade the *detector's*
// food supply, not the channel — both ends derive the same offsets, so
// the message still lands.
func TestEvaderPreservesFidelity(t *testing.T) {
	msg := RandomMessage(16, 33)

	rcfg := testParams(msg, 25_000)
	rcfg.Evader = Evader{JitterFrac: 0.2, DutyFrac: 0.5}
	obs, train := runRingChannel(t, rcfg)
	if errs := BitErrors(msg, obs.decoded); errs != 0 {
		t.Errorf("evading ring channel: %d bit errors", errs)
	}
	if train.Len() == 0 {
		t.Error("evading ring channel emitted no events at all")
	}

	tcfg := testParams(msg, 25_000)
	tcfg.Evader = Evader{JitterFrac: 0.2, DutyFrac: 0.5}
	tobs, ttrain := runTLBChannel(t, tcfg)
	if errs := BitErrors(msg, tobs.decoded); errs != 0 {
		t.Errorf("evading tlb channel: %d bit errors", errs)
	}
	if ttrain.Len() == 0 {
		t.Error("evading tlb channel emitted no events at all")
	}
}

// TestEvaderDutyThinsTrain checks the duty cycle does what the
// frontier experiment assumes: a quarter-amplitude sender emits a
// visibly sparser event train than the full-rate sender.
func TestEvaderDutyThinsTrain(t *testing.T) {
	msg := RandomMessage(16, 35)
	full := testParams(msg, 25_000)
	thin := full
	thin.Evader = Evader{DutyFrac: 0.25}
	_, fullTrain := runRingChannel(t, full)
	_, thinTrain := runRingChannel(t, thin)
	if fullTrain.Len() == 0 {
		t.Fatal("full-amplitude run emitted no events")
	}
	if thinTrain.Len()*2 >= fullTrain.Len() {
		t.Errorf("duty 0.25 train has %d events vs %d at full amplitude; expected <half",
			thinTrain.Len(), fullTrain.Len())
	}
}

// TestRingTLBSteppersAllocationFree extends the engine's
// zero-allocation contract (TestOpPathAllocationFree) to the ring and
// TLB channel hot paths: in steady state, ring loads and TLB probes —
// trojan and spy — allocate nothing. The spies' sample slices are
// pre-reserved so the measurement sees only the op path, not amortized
// append growth.
func TestRingTLBSteppersAllocationFree(t *testing.T) {
	msg := []int{1, 0, 1, 1, 0, 1, 0, 0}
	t.Run("ring", func(t *testing.T) {
		s := sim.MustNew(ringSimConfig())
		c := testParams(msg, 25_000)
		c.Repeat = true
		spy := NewRingSpy(c)
		spy.samples = make([]uint64, 0, 1<<17)
		s.Spawn(NewRingTrojan(c), sim.Pin(0))
		s.Spawn(spy, sim.Pin(2))
		until := uint64(300_000)
		s.Run(until)
		allocs := testing.AllocsPerRun(20, func() {
			until += 200_000
			s.Run(until)
		})
		if allocs != 0 {
			t.Errorf("ring channel: %v allocs per Run chunk, want 0", allocs)
		}
	})
	t.Run("tlb", func(t *testing.T) {
		s := sim.MustNew(sim.TestConfig())
		c := testParams(msg, 25_000)
		c.Repeat = true
		spy := NewTLBSpy(c)
		spy.samples = make([]uint64, 0, 1<<18)
		s.Spawn(NewTLBTrojan(c), sim.Pin(0))
		s.Spawn(spy, sim.Pin(1))
		until := uint64(500_000)
		s.Run(until)
		allocs := testing.AllocsPerRun(20, func() {
			until += 200_000
			s.Run(until)
		})
		if allocs != 0 {
			t.Errorf("tlb channel: %v allocs per Run chunk, want 0", allocs)
		}
	})
}
