package channels

import (
	"testing"

	"cchunter/internal/auditor"
	"cchunter/internal/sim"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

func TestRandomMessage(t *testing.T) {
	m := RandomMessage(64, 42)
	if len(m) != 64 {
		t.Fatalf("len = %d", len(m))
	}
	ones := 0
	for _, b := range m {
		if b != 0 && b != 1 {
			t.Fatalf("bad bit %d", b)
		}
		ones += b
	}
	if ones < 16 || ones > 48 {
		t.Errorf("suspicious bit balance: %d ones", ones)
	}
	m2 := RandomMessage(64, 42)
	for i := range m {
		if m[i] != m2[i] {
			t.Fatal("same seed produced different messages")
		}
	}
}

func TestBitErrors(t *testing.T) {
	if BitErrors([]int{1, 0, 1}, []int{1, 0, 1}) != 0 {
		t.Error("identical should be 0")
	}
	if BitErrors([]int{1, 0, 1}, []int{1, 1, 1}) != 1 {
		t.Error("one flip should be 1")
	}
	if BitErrors([]int{1, 0, 1, 1}, []int{1, 0}) != 2 {
		t.Error("missing bits count as errors")
	}
}

func TestProtocolValidate(t *testing.T) {
	for name, p := range map[string]Protocol{
		"empty message": {BPS: 10},
		"zero bps":      {Message: []int{1}},
		"bad bit":       {Message: []int{2}, BPS: 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			p.validate()
		}()
	}
}

func TestProtocolRepeat(t *testing.T) {
	p := Protocol{Message: []int{1, 0}, BPS: 10, Repeat: true}
	if b, done := p.bitAt(5); done || b != 0 {
		t.Error("repeat indexing wrong")
	}
	p.Repeat = false
	if _, done := p.bitAt(2); !done {
		t.Error("non-repeat should finish")
	}
}

// runBusChannel drives a bus channel end to end and returns the spy
// and the recorded bus-lock train.
func runBusChannel(t *testing.T, message []int, bps float64) (*BusSpy, *trace.Train) {
	t.Helper()
	cfg := DefaultBusConfig(message, bps)
	s := sim.MustNew(sim.TestConfig())
	rec := trace.NewRecorder(trace.KindBusLock)
	s.AddListener(rec)
	spy := NewBusSpy(cfg)
	s.Spawn(NewBusTrojan(cfg), sim.Pin(0))
	s.Spawn(spy, sim.Pin(2)) // different core: the bus is chip-wide
	slot := uint64(float64(sim.TestConfig().ClockHz) / bps)
	s.Run(uint64(len(message)+1) * slot)
	return spy, rec.Train()
}

func TestBusChannelDecodes(t *testing.T) {
	msg := RandomMessage(16, 7)
	spy, train := runBusChannel(t, msg, 25_000)
	if errs := BitErrors(msg, spy.Decoded()); errs != 0 {
		t.Errorf("bus channel bit errors = %d (decoded %v)", errs, spy.Decoded())
	}
	if train.Len() == 0 {
		t.Fatal("no bus lock events")
	}
	// Locks only during '1' bits: count events per slot.
	slot := uint64(2.5e9 / 25_000)
	for i, bit := range msg {
		n := train.Window(uint64(i)*slot, uint64(i+1)*slot).Len()
		if bit == 1 && n < 10 {
			t.Errorf("bit %d ('1'): only %d locks", i, n)
		}
		if bit == 0 && n != 0 {
			t.Errorf("bit %d ('0'): %d locks, want 0", i, n)
		}
	}
}

func TestBusChannelLatencySeparation(t *testing.T) {
	msg := []int{1, 0, 1, 0, 1, 0}
	spy, _ := runBusChannel(t, msg, 25_000)
	lat := spy.PerBitLatency()
	if len(lat) != len(msg) {
		t.Fatalf("latency samples = %d", len(lat))
	}
	// Figure 2's shape: contended slots clearly above uncontended.
	for i, bit := range msg {
		if bit == 1 && lat[i] < 2*lat[1] {
			t.Errorf("bit %d: '1' latency %v not well above '0' latency %v", i, lat[i], lat[1])
		}
	}
}

func runDivChannel(t *testing.T, message []int, bps float64) (*DivSpy, *trace.Train) {
	t.Helper()
	cfg := DefaultDivConfig(message, bps)
	s := sim.MustNew(sim.TestConfig())
	rec := trace.NewRecorder(trace.KindDivContention)
	s.AddListener(rec)
	spy := NewDivSpy(cfg)
	s.Spawn(NewDivTrojan(cfg), sim.Pin(0))
	s.Spawn(spy, sim.Pin(1)) // hyperthread siblings
	slot := uint64(float64(sim.TestConfig().ClockHz) / bps)
	s.Run(uint64(len(message)+1) * slot)
	return spy, rec.Train()
}

func TestDivChannelDecodes(t *testing.T) {
	msg := RandomMessage(12, 9)
	spy, train := runDivChannel(t, msg, 5_000)
	if errs := BitErrors(msg, spy.Decoded()); errs != 0 {
		t.Errorf("div channel bit errors = %d (decoded %v)", errs, spy.Decoded())
	}
	if train.Len() == 0 {
		t.Fatal("no contention events")
	}
}

func TestDivChannelContentionDensity(t *testing.T) {
	// During a '1' burst the contention density per Δt=500 must land
	// in the high bins (paper: 84–105), and '0' slots must be silent.
	msg := []int{1, 0}
	_, train := runDivChannel(t, msg, 5_000)
	slot := uint64(2.5e9 / 5_000) // 500k cycles
	burst := uint64(100_000)
	densities := train.Densities(0, burst, 500, false)
	high := 0
	for _, d := range densities {
		if d >= 60 {
			high++
		}
	}
	if high < len(densities)/2 {
		t.Errorf("burst densities too low: %v", densities[:10])
	}
	if n := train.Window(slot, 2*slot).Len(); n != 0 {
		t.Errorf("'0' slot has %d events", n)
	}
}

func runCacheChannel(t *testing.T, message []int, bps float64, sets int) (*CacheSpy, *auditor.Auditor, uint64) {
	t.Helper()
	cfg := DefaultCacheConfig(message, bps)
	cfg.SetsUsed = sets
	simCfg := sim.TestConfig()
	s := sim.MustNew(simCfg)
	aud := auditor.MustNew(auditor.DefaultConfig(simCfg.QuantumCycles))
	if err := aud.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	s.AddListener(aud)
	spy := NewCacheSpy(cfg)
	s.Spawn(NewCacheTrojan(cfg), sim.Pin(0))
	s.Spawn(spy, sim.Pin(1)) // hyperthread siblings share the L2
	slot := uint64(float64(simCfg.ClockHz) / bps)
	end := uint64(len(message)+2) * slot
	s.Run(end)
	aud.Flush(end)
	return spy, aud, end
}

func TestCacheChannelDecodes(t *testing.T) {
	msg := RandomMessage(10, 21)
	spy, _, _ := runCacheChannel(t, msg, 1000, 512)
	if errs := BitErrors(msg, spy.Decoded()); errs != 0 {
		t.Errorf("cache channel bit errors = %d (decoded %v, ratios %v)",
			errs, spy.Decoded(), spy.PerBitRatio())
	}
	// Figure 7's shape: ratio > 1 for '1', < 1 for '0'.
	for i, bit := range msg {
		r := spy.PerBitRatio()[i]
		if bit == 1 && r <= 1 {
			t.Errorf("bit %d: '1' ratio %v", i, r)
		}
		if bit == 0 && r >= 1 {
			t.Errorf("bit %d: '0' ratio %v", i, r)
		}
	}
}

func TestCacheChannelOscillationPeriod(t *testing.T) {
	// The deduplicated conflict train's period equals the total number
	// of sets used (Figure 8b / Figure 13).
	for _, sets := range []int{128, 256} {
		msg := RandomMessage(8, 33)
		_, aud, _ := runCacheChannel(t, msg, 1000, sets)
		train := aud.ConflictTrain()
		if train.Len() < 4*sets {
			t.Fatalf("%d sets: conflict train too short: %d", sets, train.Len())
		}
		// Autocorrelate the ±1 label series of the (0,1) couple.
		series := make([]float64, train.Len())
		for i, e := range train.Events() {
			switch {
			case e.Actor == 0 && e.Victim == 1:
				series[i] = 1
			case e.Actor == 1 && e.Victim == 0:
				series[i] = -1
			}
		}
		acf := stats.NewWorkspace().Autocorrelogram(series, sets*3/2)
		peaks := stats.Peaks(acf, 0.5)
		found := false
		for _, p := range peaks {
			if p.Lag >= sets*85/100 && p.Lag <= sets*115/100 {
				found = true
			}
		}
		if !found {
			t.Errorf("%d sets: no autocorrelation peak near lag %d (peaks %v)", sets, sets, peaks)
		}
	}
}

func TestCacheChannelSetSelectionDisjoint(t *testing.T) {
	cfg := DefaultCacheConfig([]int{1}, 1000)
	cfg.SetsUsed = 512
	geo := sim.Geometry{L2Sets: 2048, L2Ways: 8, ClockHz: 2_500_000_000}
	g1, g0 := selectSets(cfg, geo)
	if len(g1) != 256 || len(g0) != 256 {
		t.Fatalf("group sizes %d/%d", len(g1), len(g0))
	}
	seen := map[uint32]bool{}
	for _, s := range append(append([]uint32{}, g1...), g0...) {
		if seen[s] {
			t.Fatal("G1 and G0 overlap")
		}
		seen[s] = true
	}
	// Same seed, same groups (synchronization property).
	h1, h0 := selectSets(cfg, geo)
	for i := range g1 {
		if g1[i] != h1[i] || g0[i] != h0[i] {
			t.Fatal("set selection not deterministic")
		}
	}
}

func TestCacheChannelConfigPanics(t *testing.T) {
	geo := sim.Geometry{L2Sets: 64, L2Ways: 8}
	cfg := DefaultCacheConfig([]int{1}, 10)
	cfg.SetsUsed = 128 // more than the cache has
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	selectSets(cfg, geo)
}

func TestConstructorValidation(t *testing.T) {
	good := Protocol{Message: []int{1}, BPS: 10}
	for name, f := range map[string]func(){
		"bus trojan": func() { NewBusTrojan(BusConfig{Protocol: good}) },
		"bus spy":    func() { NewBusSpy(BusConfig{Protocol: good}) },
		"div trojan": func() { NewDivTrojan(DivConfig{Protocol: good}) },
		"div spy":    func() { NewDivSpy(DivConfig{Protocol: good}) },
		"cache troj": func() { NewCacheTrojan(CacheConfig{Protocol: good}) },
		"cache spy":  func() { NewCacheSpy(CacheConfig{Protocol: good}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: zero config should panic", name)
				}
			}()
			f()
		}()
	}
}
