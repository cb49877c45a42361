package bus

import (
	"testing"

	"cchunter/internal/trace"
)

func TestAccessUncontended(t *testing.T) {
	b := New(Config{AccessCycles: 60, LockCycles: 400}, nil)
	done, waited := b.Access(1000, 0)
	if done != 1060 || waited != 0 {
		t.Errorf("done=%d waited=%d", done, waited)
	}
	if b.BusyUntil() != 1060 {
		t.Errorf("busyUntil=%d", b.BusyUntil())
	}
}

func TestAccessSerializes(t *testing.T) {
	b := New(Config{AccessCycles: 60, LockCycles: 400}, nil)
	b.Access(0, 0)
	done, waited := b.Access(10, 1)
	if waited != 50 {
		t.Errorf("waited=%d, want 50", waited)
	}
	if done != 120 {
		t.Errorf("done=%d, want 120", done)
	}
}

func TestLockAccessHoldsBusAndEmitsEvent(t *testing.T) {
	rec := trace.NewRecorder()
	b := New(Config{AccessCycles: 60, LockCycles: 400}, trace.NewBatcher(rec, 1))
	done, _ := b.LockAccess(100, 3)
	if done != 500 {
		t.Errorf("lock done=%d, want 500", done)
	}
	// A subsequent plain access must wait out the lock.
	_, waited := b.Access(150, 1)
	if waited != 350 {
		t.Errorf("access during lock waited=%d, want 350", waited)
	}
	if rec.Train().Len() != 1 {
		t.Fatalf("events=%d, want 1", rec.Train().Len())
	}
	e := rec.Train().At(0)
	if e.Kind != trace.KindBusLock || e.Actor != 3 || e.Cycle != 100 {
		t.Errorf("event=%+v", e)
	}
	if e.Victim != trace.NoContext {
		t.Errorf("bus lock should have no victim, got %d", e.Victim)
	}
}

func TestPlainAccessEmitsNoEvent(t *testing.T) {
	rec := trace.NewRecorder()
	b := New(Config{AccessCycles: 60, LockCycles: 400}, trace.NewBatcher(rec, 1))
	b.Access(0, 0)
	if rec.Train().Len() != 0 {
		t.Error("plain access must not emit bus-lock events")
	}
}

func TestStats(t *testing.T) {
	b := New(Config{AccessCycles: 10, LockCycles: 100}, nil)
	b.Access(0, 0)     // busy until 10
	b.Access(0, 1)     // waits 10
	b.LockAccess(0, 0) // waits 20
	s := b.Stats()
	if s.Transfers != 2 || s.Locks != 1 {
		t.Errorf("counts: %+v", s)
	}
	if s.WaitedCycles != 10 || s.LockWaitCycles != 20 {
		t.Errorf("waits: %+v", s)
	}
}

func TestZeroConfigGetsDefaults(t *testing.T) {
	b := New(Config{}, nil)
	if b.cfg.AccessCycles == 0 || b.cfg.LockCycles == 0 {
		t.Error("defaults not applied")
	}
	if b.cfg.LockCycles <= b.cfg.AccessCycles {
		t.Error("a lock should occupy the bus longer than a plain access")
	}
}

// TestOperationSequences drives the bus through mixed access/lock
// sequences and checks completion and wait cycles at every step.
func TestOperationSequences(t *testing.T) {
	type op struct {
		lock       bool
		now        uint64
		ctx        uint8
		wantDone   uint64
		wantWaited uint64
	}
	cases := []struct {
		name string
		cfg  Config
		ops  []op
	}{
		{"back-to-back-accesses", Config{AccessCycles: 60, LockCycles: 400}, []op{
			{false, 0, 0, 60, 0},
			{false, 10, 1, 120, 50},
			{false, 120, 0, 180, 0},
		}},
		{"lock-stalls-access", Config{AccessCycles: 60, LockCycles: 400}, []op{
			{true, 100, 0, 500, 0},
			{false, 150, 1, 560, 350},
		}},
		{"access-stalls-lock", Config{AccessCycles: 60, LockCycles: 400}, []op{
			{false, 0, 1, 60, 0},
			{true, 10, 0, 460, 50},
		}},
		{"idle-gap-no-wait", Config{AccessCycles: 60, LockCycles: 400}, []op{
			{true, 0, 0, 400, 0},
			{false, 1000, 1, 1060, 0},
		}},
		{"lock-queue", Config{AccessCycles: 10, LockCycles: 100}, []op{
			{true, 0, 0, 100, 0},
			{true, 0, 1, 200, 100},
			{true, 0, 0, 300, 200},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New(tc.cfg, nil)
			for i, o := range tc.ops {
				var done, waited uint64
				if o.lock {
					done, waited = b.LockAccess(o.now, o.ctx)
				} else {
					done, waited = b.Access(o.now, o.ctx)
				}
				if done != o.wantDone || waited != o.wantWaited {
					t.Errorf("op %d: done=%d waited=%d, want done=%d waited=%d",
						i, done, waited, o.wantDone, o.wantWaited)
				}
			}
		})
	}
}

// TestConfigDefaults checks each zero field falls back to the default
// independently — a partially specified config is valid input.
func TestConfigDefaults(t *testing.T) {
	def := DefaultConfig()
	cases := []struct {
		name                 string
		cfg                  Config
		wantAccess, wantLock uint64
	}{
		{"all-zero", Config{}, def.AccessCycles, def.LockCycles},
		{"access-only", Config{AccessCycles: 7}, 7, def.LockCycles},
		{"lock-only", Config{LockCycles: 9_999}, def.AccessCycles, 9_999},
		{"fully-specified", Config{AccessCycles: 3, LockCycles: 11}, 3, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := New(tc.cfg, nil).cfg
			if got.AccessCycles != tc.wantAccess || got.LockCycles != tc.wantLock {
				t.Errorf("config = %+v, want access=%d lock=%d", got, tc.wantAccess, tc.wantLock)
			}
		})
	}
}

func TestContentionObservableLatencyDifference(t *testing.T) {
	// The spy's decoding premise: average access latency under a
	// storm of bus locks is clearly higher than on an idle bus.
	idle := New(DefaultConfig(), nil)
	var idleTotal uint64
	now := uint64(0)
	for i := 0; i < 100; i++ {
		done, _ := idle.Access(now, 1)
		idleTotal += done - now
		now = done + 1000 // spy paces its probes
	}

	stormy := New(DefaultConfig(), nil)
	now = 0
	var stormyTotal uint64
	for i := 0; i < 100; i++ {
		stormy.LockAccess(now, 0) // trojan locks just before the probe
		done, _ := stormy.Access(now+1, 1)
		stormyTotal += done - (now + 1)
		now = done + 1000
	}
	if stormyTotal <= idleTotal*3 {
		t.Errorf("contended latency %d not clearly above idle %d", stormyTotal, idleTotal)
	}
}
