package sim

import (
	"testing"

	"cchunter/internal/trace"
)

func TestComputeAdvancesClock(t *testing.T) {
	s := MustNew(TestConfig())
	p := once("p", func(*Machine) []Op { return []Op{compute(1000), compute(500), now()} })
	s.Spawn(p)
	s.Run(1_000_000)
	if len(p.res) != 3 {
		t.Fatalf("%d ops ran, want 3", len(p.res))
	}
	if end := p.res[2].Now; end != 1500 {
		t.Errorf("clock after computes = %d, want 1500", end)
	}
}

func TestLoadLatencies(t *testing.T) {
	s := MustNew(TestConfig())
	p := once("p", func(m *Machine) []Op {
		addr := m.PrivateAddr(7)
		ops := []Op{load(addr), load(addr)} // miss everywhere, then an L1 hit
		// Evict addr from the 8-way L1 set but not from L2: touch 8
		// more lines mapping to the same L1 set (64 L1 sets; stride 64
		// lines in line-index space re-hits the same L1 set while
		// spreading across L2 sets only as far as the geometry says).
		geo := m.Geometry()
		for i := 1; i <= geo.L1Ways; i++ {
			ops = append(ops, load(m.PrivateAddr(7+uint64(i*geo.L1Sets))))
		}
		return append(ops, load(addr))
	})
	s.Spawn(p)
	s.Run(10_000_000)
	if want := s.Geometry().L1Ways + 3; len(p.res) != want {
		t.Fatalf("%d of %d loads ran", len(p.res), want)
	}
	cold, l1hit, l2hit := p.res[0].Latency, p.res[1].Latency, p.res[len(p.res)-1].Latency
	cfg := TestConfig()
	if cold <= l2hit || l2hit <= l1hit {
		t.Errorf("latency ordering wrong: cold=%d l2=%d l1=%d", cold, l2hit, l1hit)
	}
	if l1hit != cfg.L1.HitLatency {
		t.Errorf("l1 hit = %d, want %d", l1hit, cfg.L1.HitLatency)
	}
	wantL2 := cfg.L1.HitLatency + cfg.L2.HitLatency
	if l2hit != wantL2 {
		t.Errorf("l2 hit = %d, want %d", l2hit, wantL2)
	}
	wantCold := wantL2 + cfg.Bus.AccessCycles + cfg.MemCycles
	if cold != wantCold {
		t.Errorf("cold = %d, want %d", cold, wantCold)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []trace.Event {
		cfg := TestConfig()
		cfg.MigrationProb = 0.5
		s := MustNew(cfg)
		rec := trace.NewRecorder()
		s.AddListener(rec)
		for i := 0; i < 4; i++ {
			s.Spawn(loop("worker", func(m *Machine, j int) []Op {
				return []Op{
					atomic(m.PrivateAddr(uint64(j))),
					divN(3),
					compute(uint64(100 * (i + 1))),
					load(m.PrivateAddr(uint64(j % 64))),
				}
			}))
		}
		s.Run(3_000_000)
		return append([]trace.Event(nil), rec.Train().Events()...)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEventStreamMonotonic(t *testing.T) {
	// The recorder panics on out-of-order events; drive a busy mixed
	// workload (batches included) to exercise the stamping rules.
	s := MustNew(TestConfig())
	rec := trace.NewRecorder()
	s.AddListener(rec)
	for i := 0; i < 6; i++ {
		s.Spawn(loop("mix", func(m *Machine, j int) []Op {
			addrs := make([]uint64, 16)
			for k := range addrs {
				addrs[k] = m.PrivateAddr(uint64(j*16 + k))
			}
			return []Op{loadN(addrs), divN(8), atomic(0)}
		}))
	}
	s.Run(2_000_000)
	if rec.Train().Len() == 0 {
		t.Fatal("expected events")
	}
}

func TestBusLockEventsEmitted(t *testing.T) {
	s := MustNew(TestConfig())
	rec := trace.NewRecorder(trace.KindBusLock)
	s.AddListener(rec)
	s.Spawn(once("locker", func(*Machine) []Op {
		ops := make([]Op, 10)
		for i := range ops {
			ops[i] = atomic(0)
		}
		return ops
	}))
	s.Run(10_000_000)
	if rec.Train().Len() != 10 {
		t.Errorf("bus lock events = %d, want 10", rec.Train().Len())
	}
	if got := s.BusStats().Locks; got != 10 {
		t.Errorf("bus stats locks = %d", got)
	}
}

func TestDividerContentionBetweenHyperthreads(t *testing.T) {
	s := MustNew(TestConfig())
	rec := trace.NewRecorder(trace.KindDivContention)
	s.AddListener(rec)
	s.Spawn(loop("t", hammer), Pin(0))
	s.Spawn(loop("s", hammer), Pin(1)) // same core, other thread
	s.Run(100_000)
	if rec.Train().Len() == 0 {
		t.Fatal("no contention between hyperthreads")
	}
	// Both directions should appear.
	dirs := map[[2]uint8]bool{}
	for _, e := range rec.Train().Events() {
		dirs[[2]uint8{e.Actor, e.Victim}] = true
	}
	if !dirs[[2]uint8{0, 1}] || !dirs[[2]uint8{1, 0}] {
		t.Errorf("contention directions seen: %v", dirs)
	}
}

func TestNoDividerContentionAcrossCores(t *testing.T) {
	s := MustNew(TestConfig())
	rec := trace.NewRecorder(trace.KindDivContention)
	s.AddListener(rec)
	s.Spawn(loop("a", hammer), Pin(0))
	s.Spawn(loop("b", hammer), Pin(2)) // different core
	s.Run(100_000)
	if rec.Train().Len() != 0 {
		t.Errorf("cross-core divider contention should be impossible, got %d events",
			rec.Train().Len())
	}
}

func TestConflictMissEventsOnSharedL2(t *testing.T) {
	s := MustNew(TestConfig())
	rec := trace.NewRecorder(trace.KindConflictMiss)
	s.AddListener(rec)
	// Two hyperthreads ping-pong on the same L2 sets in alternating
	// time slots, the way the covert channel's prime and probe phases
	// alternate.
	s.Spawn(loop("t", pingpong(0)), Pin(0))
	s.Spawn(loop("s", pingpong(1)), Pin(1))
	s.Run(3_000_000)
	if rec.Train().Len() == 0 {
		t.Fatal("no conflict misses on contended sets")
	}
	// Cross-context replacements must dominate.
	cross := 0
	for _, e := range rec.Train().Events() {
		if e.Victim != trace.NoContext && e.Victim != e.Actor {
			cross++
		}
	}
	if cross == 0 {
		t.Error("no cross-context conflict misses")
	}
}

func TestWaitUntilAndSleep(t *testing.T) {
	s := MustNew(TestConfig())
	p := once("p", func(*Machine) []Op {
		return []Op{waitUntil(5000), waitUntil(100)} // the second is already past: no-op
	})
	s.Spawn(p)
	s.Run(1_000_000)
	if len(p.res) != 2 {
		t.Fatalf("%d ops ran, want 2", len(p.res))
	}
	if a, b := p.res[0].Now, p.res[1].Now; a != 5000 || b != 5000 {
		t.Errorf("WaitUntil clocks = %d, %d", a, b)
	}
}

func TestQuantumRoundRobin(t *testing.T) {
	cfg := TestConfig()
	cfg.Cores = 1
	cfg.ThreadsPerCore = 1
	cfg.QuantumCycles = 10_000
	s := MustNew(cfg)
	a, b := loop("a", spin(1000)), loop("b", spin(1000))
	s.Spawn(a)
	s.Spawn(b)
	s.Run(100_000)
	if len(a.res) == 0 || len(b.res) == 0 {
		t.Fatal("both processes must get CPU time on one context")
	}
	if s.SchedStats().ContextSwitches == 0 {
		t.Error("expected context switches")
	}
	// Process a runs the first quantum; process b must not observe
	// clocks below one quantum.
	if first := b.res[0].Now; first < cfg.QuantumCycles {
		t.Errorf("b ran during a's first quantum at %d", first)
	}
}

func TestMigration(t *testing.T) {
	cfg := TestConfig()
	cfg.QuantumCycles = 5_000
	cfg.MigrationProb = 1.0
	s := MustNew(cfg)
	s.Spawn(loop("wanderer", spin(1000)))
	s.Run(200_000)
	if s.SchedStats().Migrations == 0 {
		t.Error("expected migrations with probability 1")
	}
}

func TestPinnedNeverMigrates(t *testing.T) {
	cfg := TestConfig()
	cfg.QuantumCycles = 5_000
	cfg.MigrationProb = 1.0
	s := MustNew(cfg)
	s.Spawn(loop("pinned", spin(1000)), Pin(3))
	s.Run(200_000)
	if s.SchedStats().Migrations != 0 {
		t.Errorf("pinned process migrated %d times", s.SchedStats().Migrations)
	}
}

func TestProcessCompletion(t *testing.T) {
	s := MustNew(TestConfig())
	p := s.Spawn(once("finite", func(*Machine) []Op { return []Op{compute(100)} }))
	s.Run(1_000_000)
	if !p.Done() {
		t.Error("finite program should be done")
	}
	if p.Name() != "finite" || p.id != 0 {
		t.Errorf("identity: %q %d", p.Name(), p.id)
	}
}

func TestRunIsResumable(t *testing.T) {
	s := MustNew(TestConfig())
	p := loop("p", spin(10_000))
	s.Spawn(p)
	s.Run(50_000)
	n1 := len(p.res)
	s.Run(100_000)
	if len(p.res) <= n1 {
		t.Error("second Run made no progress")
	}
	if n1 < 4 || n1 > 6 {
		t.Errorf("first Run ticks = %d, want ~5", n1)
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	s := MustNew(TestConfig())
	s.Spawn(loop("p", spin(1)))
	s.Run(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Spawn(loop("late", spin(1)))
}

func TestGeometry(t *testing.T) {
	s := MustNew(DefaultConfig())
	g := s.Geometry()
	if g.Contexts != 8 || g.Cores != 4 || g.ThreadsPerCore != 2 {
		t.Errorf("geometry: %+v", g)
	}
	if g.L2Sets != 2048 || g.L2Ways != 8 || g.LineBytes != 64 {
		t.Errorf("L2 geometry: %+v", g)
	}
	if g.L1Sets != 64 {
		t.Errorf("L1 sets = %d", g.L1Sets)
	}
}

func TestCyclesHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CyclesPerBit(1000) != 2_500_000 {
		t.Error("CyclesPerBit wrong")
	}
	if cfg.Contexts() != 8 {
		t.Error("Contexts wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CyclesPerBit(0) should panic")
		}
	}()
	cfg.CyclesPerBit(0)
}

func TestPrivateAddressesDoNotAlias(t *testing.T) {
	s := MustNew(TestConfig())
	s.Spawn(once("a", func(m *Machine) []Op { return []Op{load(m.PrivateAddr(1))} }), Pin(0))
	b := once("b", func(m *Machine) []Op {
		return []Op{compute(100_000), load(m.PrivateAddr(1))} // load after a's
	})
	s.Spawn(b, Pin(1))
	s.Run(1_000_000)
	if len(b.res) != 2 {
		t.Fatalf("%d ops of b ran, want 2", len(b.res))
	}
	cfg := TestConfig()
	wantCold := cfg.L1.HitLatency + cfg.L2.HitLatency + cfg.Bus.AccessCycles + cfg.MemCycles
	if lat1 := b.res[1].Latency; lat1 != wantCold {
		t.Errorf("process b hit process a's line: lat=%d want cold=%d", lat1, wantCold)
	}
}

func TestTrackerKindSelectable(t *testing.T) {
	for _, kind := range []TrackerKind{TrackerGenerational, TrackerIdeal} {
		cfg := TestConfig()
		cfg.Tracker = kind
		s := MustNew(cfg)
		rec := trace.NewRecorder(trace.KindConflictMiss)
		s.AddListener(rec)
		pingpong := func(m *Machine, _ int) []Op {
			var ops []Op
			for w := 0; w < m.Geometry().L2Ways; w++ {
				ops = append(ops, load(m.L2AddrForSet(0, w)))
			}
			return append(ops, compute(100))
		}
		s.Spawn(loop("t", pingpong), Pin(0))
		s.Spawn(loop("s", pingpong), Pin(1))
		s.Run(1_000_000)
		if rec.Train().Len() == 0 {
			t.Errorf("tracker %v found no conflicts", kind)
		}
	}
}

// spin is a round of one compute op, repeated forever.
func spin(cycles uint64) func(*Machine, int) []Op {
	return func(*Machine, int) []Op { return []Op{compute(cycles)} }
}

// hammer is a round of one division, repeated forever.
func hammer(*Machine, int) []Op { return []Op{div()} }

// pingpong returns the rounds of a program that loads every way of
// eight L2 sets in alternate time slots, phase 0 or 1, the way a cache
// channel's prime and probe phases alternate.
func pingpong(phase uint64) func(*Machine, int) []Op {
	const slot = 50_000
	return func(m *Machine, i int) []Op {
		ops := []Op{waitUntil((2*uint64(i) + phase) * slot)}
		for set := uint32(0); set < 8; set++ {
			for w := 0; w < m.Geometry().L2Ways; w++ {
				ops = append(ops, load(m.L2AddrForSet(set, w)))
			}
		}
		return ops
	}
}
