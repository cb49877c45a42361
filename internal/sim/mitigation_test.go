package sim

import (
	"testing"

	"cchunter/internal/mitigate"
	"cchunter/internal/trace"
)

func TestBusLimiterSlowsLockStorms(t *testing.T) {
	run := func(withLimiter bool) uint64 {
		cfg := TestConfig()
		if withLimiter {
			cfg.Mitigations.BusLimiter = mitigate.NewBusLockLimiter(cfg.Contexts(), 100_000, 2, 200_000)
		}
		s := MustNew(cfg)
		p := once("storm", func(*Machine) []Op {
			ops := make([]Op, 50, 51)
			for i := range ops {
				ops[i] = atomic(0)
			}
			return append(ops, now())
		})
		s.Spawn(p)
		s.Run(100_000_000)
		if len(p.res) != 51 {
			t.Fatalf("%d of 51 ops ran", len(p.res))
		}
		return p.res[50].Now
	}
	free := run(false)
	limited := run(true)
	if limited < 10*free {
		t.Errorf("limiter barely slowed the storm: %d vs %d cycles", limited, free)
	}
}

func TestPartitionPreventsCrossContextEviction(t *testing.T) {
	cfg := TestConfig()
	cfg.Mitigations.Partition = mitigate.NewCachePartition(cfg.Contexts(), nil)
	s := MustNew(cfg)
	rec := trace.NewRecorder(trace.KindConflictMiss)
	s.AddListener(rec)
	s.Spawn(loop("t", pingpong(0)), Pin(0))
	s.Spawn(loop("s", pingpong(1)), Pin(1))
	s.Run(3_000_000)
	for _, e := range rec.Train().Events() {
		if e.Victim != trace.NoContext && e.Victim != e.Actor {
			t.Fatalf("cross-context eviction under partitioning: %+v", e)
		}
	}
}

func TestDividerTDMEliminatesContention(t *testing.T) {
	cfg := TestConfig()
	cfg.Mitigations.DividerTDM = mitigate.NewDividerTDM(10_000)
	s := MustNew(cfg)
	rec := trace.NewRecorder(trace.KindDivContention)
	s.AddListener(rec)
	s.Spawn(loop("a", hammer), Pin(0))
	s.Spawn(loop("b", hammer), Pin(1))
	s.Run(500_000)
	if n := rec.Train().Len(); n != 0 {
		t.Errorf("TDM left %d contention events", n)
	}
}

func TestClockFuzzDegradesObservations(t *testing.T) {
	cfg := TestConfig()
	cfg.Mitigations.Fuzz = mitigate.NewClockFuzz(1000, 0, 1)
	s := MustNew(cfg)
	p := once("p", func(m *Machine) []Op {
		// The load's true latency is ~226, quantized to 0.
		return []Op{load(m.PrivateAddr(1)), now(), compute(100), now()}
	})
	s.Spawn(p)
	s.Run(1_000_000)
	if len(p.res) != 4 {
		t.Fatalf("%d of 4 ops ran", len(p.res))
	}
	lat, now1, now2 := p.res[0].Latency, p.res[1].Now, p.res[3].Now
	if lat%1000 != 0 {
		t.Errorf("latency %d not quantized", lat)
	}
	if now1%1000 != 0 || now2%1000 != 0 {
		t.Errorf("clock reads %d, %d not quantized", now1, now2)
	}
	if now2 < now1 {
		t.Error("fuzzed clock went backwards")
	}
}
