package workload

import (
	"testing"

	"cchunter/internal/sim"
	"cchunter/internal/trace"
)

// runPair runs two specs as hyperthread siblings for `cycles` and
// returns the recorded event train.
func runPair(t *testing.T, a, b Spec, cycles uint64) *trace.Train {
	t.Helper()
	s := sim.MustNew(sim.TestConfig())
	rec := trace.NewRecorder()
	s.AddListener(rec)
	s.Spawn(New(a, 1), sim.Pin(0))
	s.Spawn(New(b, 2), sim.Pin(1))
	s.Run(cycles)
	return rec.Train()
}

func TestAllSpecsRun(t *testing.T) {
	for name, spec := range All() {
		s := sim.MustNew(sim.TestConfig())
		s.Spawn(New(spec, 7), sim.Pin(0))
		s.Run(500_000)
		_ = name
	}
}

func TestSpecNeedsName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Spec{}, 1)
}

func TestAllContainsPaperWorkloads(t *testing.T) {
	all := All()
	for _, name := range []string{"gobmk", "sjeng", "bzip2", "h264ref", "mcf", "stream", "mailserver", "webserver"} {
		if _, ok := all[name]; !ok {
			t.Errorf("missing workload %q", name)
		}
	}
}

func TestBusHeavyPairProducesLocks(t *testing.T) {
	tr := runPair(t, Gobmk(), Sjeng(), 5_000_000)
	locks := tr.FilterKind(trace.KindBusLock).Len()
	if locks == 0 {
		t.Error("gobmk+sjeng should issue some bus locks")
	}
	// But nowhere near a covert channel's density: fewer than 2 locks
	// per Δt=100k on average.
	if rate := float64(locks) / 50.0; rate > 2 {
		t.Errorf("benign lock rate %.2f per 100k cycles is channel-like", rate)
	}
}

func TestDividerHeavyPairProducesContention(t *testing.T) {
	tr := runPair(t, Bzip2(), H264ref(), 5_000_000)
	div := tr.FilterKind(trace.KindDivContention).Len()
	if div == 0 {
		t.Error("bzip2+h264ref should contend on the divider")
	}
}

func TestStreamPairProducesConflictMisses(t *testing.T) {
	tr := runPair(t, Stream(), Stream(), 5_000_000)
	if tr.FilterKind(trace.KindConflictMiss).Len() == 0 {
		t.Error("two streams on one L2 should conflict")
	}
}

func TestMailserverIsBursty(t *testing.T) {
	tr := runPair(t, Mailserver(), Mailserver(), 20_000_000)
	locks := tr.FilterKind(trace.KindBusLock)
	if locks.Len() == 0 {
		t.Fatal("mailserver should lock the bus")
	}
	densities := locks.Densities(0, 20_000_000, 100_000, false)
	quiet, busy := 0, 0
	for _, d := range densities {
		switch {
		case d == 0:
			quiet++
		case d >= 2:
			busy++
		}
	}
	if quiet < len(densities)/2 {
		t.Errorf("mailserver not bursty: %d quiet of %d windows", quiet, len(densities))
	}
	if busy == 0 {
		t.Error("mailserver bursts missing")
	}
}

func TestWebserverWalksSetsCyclically(t *testing.T) {
	s := sim.MustNew(sim.TestConfig())
	rec := trace.NewRecorder(trace.KindConflictMiss)
	s.AddListener(rec)
	s.Spawn(New(Webserver(), 3), sim.Pin(0))
	s.Spawn(New(Webserver(), 4), sim.Pin(1))
	s.Run(20_000_000)
	if rec.Train().Len() == 0 {
		t.Error("webserver pair should produce conflict misses on shared sets")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := runPair(t, Mailserver(), Webserver(), 2_000_000)
	b := runPair(t, Mailserver(), Webserver(), 2_000_000)
	if a.Len() != b.Len() {
		t.Fatalf("event counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events() {
		if a.At(i) != b.At(i) {
			t.Fatal("workload runs are not deterministic")
		}
	}
}

func TestBackgroundIsQuiet(t *testing.T) {
	tr := runPair(t, Background(0), Background(1), 5_000_000)
	locks := tr.FilterKind(trace.KindBusLock).Len()
	if locks > 20 {
		t.Errorf("background processes too noisy: %d locks", locks)
	}
}
