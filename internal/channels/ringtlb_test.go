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
// returns the spy and the recorded ring-contention train.
func runRingChannel(t *testing.T, cfg RingConfig) (*RingSpy, *trace.Train) {
	t.Helper()
	s := sim.MustNew(ringSimConfig())
	rec := trace.NewRecorder(trace.KindRingContention)
	s.AddListener(rec)
	spy := NewRingSpy(cfg)
	s.Spawn(NewRingTrojan(cfg), sim.Pin(0))
	s.Spawn(spy, sim.Pin(2)) // different core: contention is in the ring
	slot := cfg.slotCycles(s.Geometry())
	s.Run(uint64(len(cfg.Message)+1) * slot)
	return spy, rec.Train()
}

// runTLBChannel drives a TLB channel end to end and returns the spy
// and the recorded tlb-conflict train. Trojan and spy share core 0 as
// hyperthreads: the sTLB is per-core.
func runTLBChannel(t *testing.T, cfg TLBConfig) (*TLBSpy, *trace.Train) {
	t.Helper()
	s := sim.MustNew(sim.TestConfig())
	rec := trace.NewRecorder(trace.KindTLBConflict)
	s.AddListener(rec)
	spy := NewTLBSpy(cfg)
	s.Spawn(NewTLBTrojan(cfg), sim.Pin(0))
	s.Spawn(spy, sim.Pin(1))
	slot := cfg.symbolSlot(s.Geometry())
	s.Run(uint64(len(cfg.Message)/cfg.SymbolBits+2) * slot)
	return spy, rec.Train()
}

func TestRingChannelTransmits(t *testing.T) {
	msg := RandomMessage(24, 21)
	spy, train := runRingChannel(t, DefaultRingConfig(msg, 25_000))
	if errs := BitErrors(msg, spy.Observation().Decoded); errs != 0 {
		t.Errorf("ring channel at 25 kbps: %d bit errors\nsent    %v\ndecoded %v",
			errs, msg, spy.Observation().Decoded)
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
	spy, train := runTLBChannel(t, DefaultTLBConfig(msg, 25_000))
	if errs := BitErrors(msg, spy.Observation().Decoded); errs != 0 {
		t.Errorf("tlb channel at 25 kbps: %d bit errors\nsent    %v\ndecoded %v",
			errs, msg, spy.Observation().Decoded)
	}
	if train.Len() == 0 {
		t.Fatal("tlb channel emitted no tlb-conflict events")
	}
	if got := len(spy.Observation().Series); got < len(msg)/2 {
		t.Errorf("only %d per-symbol observables for a %d-bit message", got, len(msg))
	}
}

// TestTLBChannelOddMessage pins the trailing-partial-symbol contract:
// a message whose length is not a multiple of SymbolBits still decodes
// exactly, with the pad bits trimmed.
func TestTLBChannelOddMessage(t *testing.T) {
	msg := RandomMessage(13, 23)
	spy, _ := runTLBChannel(t, DefaultTLBConfig(msg, 25_000))
	if len(spy.Observation().Decoded) != len(msg) {
		t.Fatalf("decoded %d bits for a %d-bit message", len(spy.Observation().Decoded), len(msg))
	}
	if errs := BitErrors(msg, spy.Observation().Decoded); errs != 0 {
		t.Errorf("odd-length tlb message: %d bit errors", errs)
	}
}

func TestTLBSymbolAt(t *testing.T) {
	cfg := DefaultTLBConfig([]int{1, 0, 1, 1, 1}, 1000) // 0b10, 0b11, 0b10 (pad)
	for i, want := range []int{2, 3, 2} {
		sym, done := cfg.symbolAt(i)
		if done || sym != want {
			t.Errorf("symbolAt(%d) = (%d, %v), want (%d, false)", i, sym, done, want)
		}
	}
	if _, done := cfg.symbolAt(3); !done {
		t.Error("symbolAt past the message must report done")
	}
}

func TestDecodeTLBSymbol(t *testing.T) {
	for _, tc := range []struct {
		misses []int
		want   int
	}{
		{nil, 0},
		{[]int{0, 0, 0, 0}, 0},
		{[]int{1, 9, 2, 3}, 1},
		{[]int{0, 0, 0, 7}, 3},
		{[]int{5, 5, 2, 5}, 0}, // ties break to the lowest group
		{[]int{2, 4, 4, 1}, 1},
	} {
		if got := DecodeTLBSymbol(tc.misses); got != tc.want {
			t.Errorf("DecodeTLBSymbol(%v) = %d, want %d", tc.misses, got, tc.want)
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
		misses := make([]int, n)
		for g := range misses {
			misses[g] = int(packed >> uint(8*g) & 0xff)
		}
		sym := DecodeTLBSymbol(misses)
		if sym < 0 || (n > 0 && sym >= n) || (n == 0 && sym != 0) {
			t.Fatalf("DecodeTLBSymbol(%v) = %d out of range", misses, sym)
		}
		for g, c := range misses {
			if c > misses[sym] {
				t.Fatalf("DecodeTLBSymbol(%v) = %d but group %d has more misses",
					misses, sym, g)
			}
			if g < sym && c == misses[sym] {
				t.Fatalf("DecodeTLBSymbol(%v) = %d broke the tie upward past %d",
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

	base := DefaultRingConfig(msg, 25_000)
	unit := base
	unit.Evader = Evader{DutyFrac: 1}
	spyA, trainA := runRingChannel(t, base)
	spyB, trainB := runRingChannel(t, unit)
	if !reflect.DeepEqual(spyA.Observation().Decoded, spyB.Observation().Decoded) {
		t.Error("ring: DutyFrac 1 changed the decoded bits")
	}
	if !reflect.DeepEqual(trainA.Events(), trainB.Events()) {
		t.Error("ring: DutyFrac 1 changed the event train")
	}

	tbase := DefaultTLBConfig(msg, 25_000)
	tunit := tbase
	tunit.Evader = Evader{DutyFrac: 1}
	tspyA, ttrainA := runTLBChannel(t, tbase)
	tspyB, ttrainB := runTLBChannel(t, tunit)
	if !reflect.DeepEqual(tspyA.Observation().Decoded, tspyB.Observation().Decoded) {
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

	rcfg := DefaultRingConfig(msg, 25_000)
	rcfg.Evader = Evader{JitterFrac: 0.2, DutyFrac: 0.5}
	spy, train := runRingChannel(t, rcfg)
	if errs := BitErrors(msg, spy.Observation().Decoded); errs != 0 {
		t.Errorf("evading ring channel: %d bit errors", errs)
	}
	if train.Len() == 0 {
		t.Error("evading ring channel emitted no events at all")
	}

	tcfg := DefaultTLBConfig(msg, 25_000)
	tcfg.Evader = Evader{JitterFrac: 0.2, DutyFrac: 0.5}
	tspy, ttrain := runTLBChannel(t, tcfg)
	if errs := BitErrors(msg, tspy.Observation().Decoded); errs != 0 {
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
	full := DefaultRingConfig(msg, 25_000)
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
// trojan and spy — allocate nothing. The spies' per-slot result slices
// are pre-reserved so the measurement sees only the op path, not
// amortized append growth.
func TestRingTLBSteppersAllocationFree(t *testing.T) {
	msg := []int{1, 0, 1, 1, 0, 1, 0, 0}
	t.Run("ring", func(t *testing.T) {
		s := sim.MustNew(ringSimConfig())
		c := DefaultRingConfig(msg, 25_000)
		c.Repeat = true
		spy := NewRingSpy(c)
		spy.obs = Observation{make([]int, 0, 1<<16), make([]float64, 0, 1<<16)}
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
		c := DefaultTLBConfig(msg, 25_000)
		c.Repeat = true
		spy := NewTLBSpy(c)
		spy.obs = Observation{make([]int, 0, 1<<16), make([]float64, 0, 1<<16)}
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
