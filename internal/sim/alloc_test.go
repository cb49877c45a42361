package sim

import "testing"

// spinStepper issues an endless stream of compute ops — the minimal
// steady-state op workload for allocation measurement.
type spinStepper struct{}

func (spinStepper) Name() string     { return "spin" }
func (s spinStepper) Run(m *Machine) { RunSteps(s, m) }
func (spinStepper) Begin(*Machine)   {}
func (spinStepper) Step(_ OpResult, op *Op) bool {
	*op = Op{Kind: OpCompute, Cycles: 50}
	return true
}

// TestOpPathAllocationFree pins the engine's zero-allocation contract
// on both drivers: once processes are started, executing ops — the
// direct Step calls of the step driver, and the by-value Op channel
// round-trip of the goroutine reference driver (the old per-op
// `p.pending = &req` heap escape) — allocates nothing.
func TestOpPathAllocationFree(t *testing.T) {
	for name, driver := range map[string]Driver{
		"step":      DriverStep,
		"goroutine": DriverGoroutine,
	} {
		t.Run(name, func(t *testing.T) {
			cfg := TestConfig()
			cfg.Driver = driver
			s := MustNew(cfg)
			defer s.Close()
			for ctx := 0; ctx < 4; ctx++ {
				s.Spawn(spinStepper{}, Pin(ctx))
			}
			// Warm-up: start the processes (goroutine spawns, first
			// channel parks) and reach steady state.
			until := uint64(100_000)
			s.Run(until)
			allocs := testing.AllocsPerRun(20, func() {
				until += 200_000
				s.Run(until)
			})
			if allocs != 0 {
				t.Errorf("%s driver: %v allocs per Run chunk in steady state, want 0",
					name, allocs)
			}
		})
	}
}
