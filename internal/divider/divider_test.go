package divider

import (
	"fmt"
	"testing"

	"cchunter/internal/trace"
)

func TestDivideUncontended(t *testing.T) {
	b := New(Config{DivCycles: 5}, nil)
	done, waited := b.Divide(100, 0)
	if done != 105 || waited != 0 {
		t.Errorf("done=%d waited=%d", done, waited)
	}
}

func TestSameContextBackToBackIsNotContention(t *testing.T) {
	rec := trace.NewRecorder()
	b := New(Config{DivCycles: 5}, trace.NewBatcher(rec, 1))
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
	b := New(Config{DivCycles: 5}, trace.NewBatcher(rec, 1))
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
	if b.Config().DivCycles == 0 {
		t.Error("defaults not applied")
	}
}

// chain issues n back-to-back divisions from ctx one DivideStamped
// call at a time, each at the completion of the one before: the
// reference DivideN must match.
func chain(b *Bank, now, stamp uint64, ctx uint8, n int) uint64 {
	for i := 0; i < n; i++ {
		now, _ = b.DivideStamped(now, stamp, ctx)
	}
	return now
}

func TestDivideNMatchesLoop(t *testing.T) {
	// Each history leaves the unit in a distinct state before context
	// 0 issues its batch; both banks replay the same history, so they
	// start identical.
	histories := []struct {
		name string
		run  func(b *Bank)
	}{
		{"idle", func(*Bank) {}},
		// The sibling's division occupies the unit over [3, 8).
		{"sibling-in-flight", func(b *Bank) { b.Divide(3, 1) }},
		// The sibling's batch leaves a reservation over [995, 1000):
		// divisions issued at or before 990 backfill in front of it.
		{"sibling-batch", func(b *Bank) { chain(b, 0, 0, 1, 200) }},
		// A deferred start (as under TDM) reserves [1000, 1005) ahead
		// of most issue cycles below.
		{"sibling-deferred", func(b *Bank) { b.Divide(1000, 1) }},
		{"own-batch", func(b *Bank) { chain(b, 0, 0, 0, 200) }},
		{"own-batch-then-sibling", func(b *Bank) { chain(b, 0, 0, 0, 200); b.Divide(20, 1) }},
	}
	issues := []uint64{0, 2, 3, 7, 8, 10, 500, 989, 990, 991, 994, 995, 999, 1000, 1004, 1005, 2000}
	counts := []int{0, 1, 2, 3, 199, 200, 256}
	for _, h := range histories {
		for _, now := range issues {
			for _, n := range counts {
				for probe := uint8(0); probe < 2; probe++ {
					name := fmt.Sprintf("%s/now=%d/n=%d/probe=%d", h.name, now, n, probe)
					checkDivideN(t, name, h.run, now, n, probe)
				}
			}
		}
	}
}

// eventLog keeps every event in arrival order. Unlike a Recorder's
// train it accepts events out of time order: the probes below are
// stamped before the batch they follow.
type eventLog []trace.Event

func (l *eventLog) OnEvents(events []trace.Event) { *l = append(*l, events...) }

// checkDivideN replays history on two banks, issues n divisions from
// context 0 at now (stamped one cycle later, so a stamp taken from
// the wrong argument shows) with DivideN on one and chain on the
// other, then one division from probe at now and one at the batch's
// end, and compares everything the banks return, count and emit.
func checkDivideN(t *testing.T, name string, history func(*Bank), now uint64, n int, probe uint8) {
	t.Helper()
	var evFast, evLoop eventLog
	fast := New(DefaultConfig(), trace.NewBatcher(&evFast, 1))
	loop := New(DefaultConfig(), trace.NewBatcher(&evLoop, 1))
	history(fast)
	history(loop)
	end := fast.DivideN(now, now+1, 0, n)
	if want := chain(loop, now, now+1, 0, n); end != want {
		t.Fatalf("%s: DivideN returned %d, chained divisions %d", name, end, want)
	}
	if f, l := fast.Stats(), loop.Stats(); f != l {
		t.Fatalf("%s: stats %+v after DivideN, %+v after the chain", name, f, l)
	}
	for _, at := range []uint64{now, end} {
		fd, fw := fast.Divide(at, probe)
		ld, lw := loop.Divide(at, probe)
		if fd != ld || fw != lw {
			t.Fatalf("%s: division at %d returned (%d, %d) after DivideN, (%d, %d) after the chain", name, at, fd, fw, ld, lw)
		}
	}
	if f, l := fast.Stats(), loop.Stats(); f != l {
		t.Fatalf("%s: stats %+v after the probes, %+v", name, f, l)
	}
	if len(evFast) != len(evLoop) {
		t.Fatalf("%s: %d events after DivideN, %d after the chain", name, len(evFast), len(evLoop))
	}
	for i := range evFast {
		if f, l := evFast[i], evLoop[i]; f.Cycle != l.Cycle || f.Kind != l.Kind || f.Actor != l.Actor || f.Victim != l.Victim {
			t.Fatalf("%s: event %d is %+v after DivideN, %+v after the chain", name, i, f, l)
		}
	}
}
