package sim

// OpKind identifies one machine operation.
type OpKind uint8

const (
	// OpCompute spends Cycles cycles of pure computation.
	OpCompute OpKind = iota
	// OpLoad reads Addr through the cache hierarchy.
	OpLoad
	// OpStore writes Addr (modelled identically to OpLoad).
	OpStore
	// OpLoadN performs the loads in Addrs back-to-back in one round.
	OpLoadN
	// OpAtomicUnaligned locks the memory bus for an atomic access
	// spanning two lines at Addr.
	OpAtomicUnaligned
	// OpDiv issues one integer division.
	OpDiv
	// OpDivN issues Count back-to-back divisions in one round.
	OpDivN
	// OpNow reads the context's clock.
	OpNow
	// OpWaitUntil sleeps until absolute cycle Cycles.
	OpWaitUntil
	// OpTLBProbe looks up Addr's translation in the core's shared TLB
	// (filling on a miss) without touching the cache hierarchy.
	OpTLBProbe
)

// Op is one decoded machine operation. It is the unit of work the
// engine executes: Steppers write ops straight into an engine-owned
// slot (see Stepper.Step), so the steady-state execution path performs
// no per-op allocation and no per-op struct copy.
type Op struct {
	Kind   OpKind
	Addr   uint64   // OpLoad / OpStore / OpAtomicUnaligned target
	Addrs  []uint64 // OpLoadN batch (owned by the program; stable until its next Step)
	Cycles uint64   // OpCompute amount / OpWaitUntil absolute target
	Count  int      // OpDivN count
}

// OpResult is the engine's reply to an executed Op. Both fields are
// the program-observable values: with a fuzzy-clock mitigation active
// they are degraded, while the architectural clock is not.
type OpResult struct {
	Now     uint64 // context clock after the op
	Latency uint64 // cycles from issue to completion
}

// Stepper is a resumable program: a state machine the engine drives
// with direct calls instead of a goroutine. The engine calls Step to
// obtain the next operation, executes it, and passes the result to the
// following Step call — zero channel traffic, zero stack switches.
//
// Every Stepper must also implement the blocking Program interface;
// RunSteps adapts Step to the goroutine driver so the exact same
// program logic runs under either driver (the differential-test
// lever: Config.Driver selects which one executes).
//
// A Stepper instance holds per-run state and must not be spawned into
// more than one process.
type Stepper interface {
	Program
	// Begin hands the stepper its machine handle before the first
	// Step. Only the non-blocking Machine methods (Geometry, PID,
	// PrivateAddr, L2AddrForSet) may be called on it.
	Begin(m *Machine)
	// Step writes the next operation into *op given the previous op's
	// result, and reports whether there is one. The contract:
	//
	//   - When it returns true, Step has overwritten every field of
	//     *op — assign a whole value (`*op = sim.Op{Kind: ...}`), never
	//     single fields, because *op still holds the previous op.
	//   - *op is owned by the engine and is valid only until the next
	//     Step call; a stepper must not retain the pointer.
	//   - The first call receives the zero OpResult. Returning false
	//     means the program finished (*op is then ignored); Step is
	//     never called again.
	//
	// The op goes by pointer because Op is too large for Go to keep in
	// registers: returned by value, every op would be spilled to the
	// stack and reloaded once per simulated operation.
	Step(prev OpResult, op *Op) (ok bool)
}

// RunSteps drives a Stepper through the blocking Machine API. Stepper
// implementations use it as their entire Program.Run body, so the
// goroutine reference driver executes the identical op stream. The op
// slot is declared once, so the loop allocates nothing per op.
func RunSteps(s Stepper, m *Machine) {
	s.Begin(m)
	var prev OpResult
	var op Op
	for s.Step(prev, &op) {
		prev = m.Do(op)
	}
}
