package sim

import "testing"

// spinProgram issues an endless stream of compute ops — the minimal
// steady-state op workload for allocation measurement.
type spinProgram struct{}

func (spinProgram) Name() string   { return "spin" }
func (spinProgram) Begin(*Machine) {}
func (spinProgram) Step(_ OpResult, op *Op) bool {
	*op = Op{Kind: OpCompute, Cycles: 50}
	return true
}

// TestOpPathAllocationFree pins the engine's zero-allocation contract:
// once processes are started, executing ops — a direct Step call per
// op into the process's op slot — allocates nothing.
func TestOpPathAllocationFree(t *testing.T) {
	t.Run("step", func(t *testing.T) {
		s := MustNew(TestConfig())
		for ctx := 0; ctx < 4; ctx++ {
			s.Spawn(spinProgram{}, Pin(ctx))
		}
		// Warm-up: start the processes and reach steady state.
		until := uint64(100_000)
		s.Run(until)
		allocs := testing.AllocsPerRun(20, func() {
			until += 200_000
			s.Run(until)
		})
		if allocs != 0 {
			t.Errorf("%v allocs per Run chunk in steady state, want 0", allocs)
		}
	})
}
