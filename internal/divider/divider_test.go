package divider

import (
	"testing"

	"cchunter/internal/trace"
)

func TestDivideUncontended(t *testing.T) {
	b := New(Config{Units: 1, DivCycles: 5}, nil)
	done, waited := b.Divide(100, 0)
	if done != 105 || waited != 0 {
		t.Errorf("done=%d waited=%d", done, waited)
	}
}

func TestSameContextBackToBackIsNotContention(t *testing.T) {
	rec := trace.NewRecorder()
	b := New(Config{Units: 1, DivCycles: 5}, trace.NewBatcher(rec, 1))
	b.Divide(0, 2)
	done, waited := b.Divide(0, 2)
	if waited != 5 || done != 10 {
		t.Errorf("done=%d waited=%d", done, waited)
	}
	if rec.Train().Len() != 0 {
		t.Error("same-context wait must not be an indicator event")
	}
	if b.Stats().Contention != 0 {
		t.Error("contention counter should be zero")
	}
}

func TestCrossContextWaitEmitsEvent(t *testing.T) {
	rec := trace.NewRecorder()
	b := New(Config{Units: 1, DivCycles: 5}, trace.NewBatcher(rec, 1))
	b.Divide(0, 0)                 // trojan occupies until 5
	done, waited := b.Divide(2, 1) // spy waits 3
	if waited != 3 || done != 10 {
		t.Errorf("done=%d waited=%d", done, waited)
	}
	if rec.Train().Len() != 1 {
		t.Fatalf("events=%d", rec.Train().Len())
	}
	e := rec.Train().At(0)
	if e.Kind != trace.KindDivContention || e.Actor != 1 || e.Victim != 0 || e.Cycle != 2 {
		t.Errorf("event=%+v", e)
	}
}

func TestMultipleUnits(t *testing.T) {
	rec := trace.NewRecorder()
	b := New(Config{Units: 2, DivCycles: 10}, trace.NewBatcher(rec, 1))
	b.Divide(0, 0) // unit 0 busy until 10
	done, waited := b.Divide(0, 1)
	if waited != 0 || done != 10 {
		t.Errorf("second unit should be free: done=%d waited=%d", done, waited)
	}
	if rec.Train().Len() != 0 {
		t.Error("no contention with a free unit")
	}
	// Third division with both busy must wait and emit.
	_, waited = b.Divide(0, 1)
	if waited != 10 {
		t.Errorf("waited=%d, want 10", waited)
	}
	if rec.Train().Len() != 1 {
		t.Errorf("events=%d, want 1", rec.Train().Len())
	}
}

func TestSaturationContentionRate(t *testing.T) {
	// Two contexts hammering one divider: in steady state roughly one
	// contention event per spy division, which is what puts the
	// paper's burst distribution at high density bins for Δt=500.
	b := New(DefaultConfig(), nil)
	var tTime, sTime uint64
	for i := 0; i < 1000; i++ {
		tTime, _ = b.Divide(tTime, 0)
		sTime, _ = b.Divide(sTime, 1)
	}
	s := b.Stats()
	if s.Divisions != 2000 {
		t.Errorf("divisions=%d", s.Divisions)
	}
	if s.Contention < 1500 {
		t.Errorf("contention=%d, want near one per division", s.Contention)
	}
}

func TestZeroConfigGetsDefaults(t *testing.T) {
	b := New(Config{}, nil)
	if b.Config().Units <= 0 || b.Config().DivCycles == 0 {
		t.Error("defaults not applied")
	}
}
