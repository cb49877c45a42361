package sim

// OpKind identifies one machine operation. Every latency is in
// simulated cycles, never wall-clock time.
type OpKind uint8

const (
	// OpCompute spends Cycles cycles of pure computation.
	OpCompute OpKind = iota
	// OpLoad reads Addr through the cache hierarchy; its latency is
	// the observable covert-channel receivers decode bits from.
	OpLoad
	// OpStore writes Addr (modelled identically to OpLoad:
	// write-allocate).
	OpStore
	// OpLoadN performs the loads in Addrs back-to-back in one round
	// and reports their total latency. Other contexts do not
	// interleave with a batch, so keep batches to the natural run
	// lengths of the modelled code (streaming workloads, cache
	// priming loops).
	OpLoadN
	// OpAtomicUnaligned locks the memory bus for an atomic access
	// spanning two lines at Addr: the bus covert channel's
	// transmitter primitive.
	OpAtomicUnaligned
	// OpDiv issues one integer division; its latency includes any
	// wait on a busy divider.
	OpDiv
	// OpDivN issues Count back-to-back divisions in one round; the
	// same no-interleaving caveat as OpLoadN applies. Without the
	// divider TDM mitigation it is one constant-time bank call
	// (divider.(*Bank).DivideN); with TDM each division waits for its
	// own slot.
	OpDivN
	// OpNow reads the context's clock (OpResult.Now) and takes no
	// time.
	OpNow
	// OpWaitUntil sleeps until absolute cycle Cycles (no time passes
	// when it is already past). Channel programs use it to pace bit
	// slots; workload models use it to pace request arrivals.
	OpWaitUntil
	// OpTLBProbe looks up Addr's translation in the core's shared TLB
	// (filling on a miss) without touching the cache hierarchy: the
	// accessed-bit probe primitive of the TLB covert channel. A hit
	// means the translation survived; a page-walk latency means the
	// other hyperthread evicted it.
	OpTLBProbe
)

// Op is one decoded machine operation. It is the unit of work the
// engine executes: programs write ops straight into an engine-owned
// slot (see Program.Step), so the steady-state execution path performs
// no per-op allocation and no per-op struct copy.
type Op struct {
	Kind   OpKind
	Addr   uint64   // OpLoad / OpStore / OpAtomicUnaligned / OpTLBProbe target
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

// Program is the code a software process runs: a resumable state
// machine the engine drives with direct calls. The engine calls Step
// to obtain the next operation, executes it, and passes the result to
// the following Step call; a program makes progress only inside Step,
// so it needs no synchronization.
//
// A Program instance holds per-run state and must not be spawned into
// more than one process.
type Program interface {
	// Name labels the process for reporting.
	Name() string
	// Begin hands the program its machine handle before the first
	// Step.
	Begin(m *Machine)
	// Step writes the next operation into *op given the previous op's
	// result, and reports whether there is one. The contract:
	//
	//   - When it returns true, Step has overwritten every field of
	//     *op — assign a whole value (`*op = sim.Op{Kind: ...}`), never
	//     single fields, because *op still holds the previous op.
	//   - *op is owned by the engine and is valid only until the next
	//     Step call; a program must not retain the pointer.
	//   - The first call receives the zero OpResult. Returning false
	//     means the program finished (*op is then ignored); Step is
	//     never called again. A program that never returns false runs
	//     for as long as the system does.
	//
	// The op goes by pointer because Op is too large for Go to keep in
	// registers: returned by value, every op would be spilled to the
	// stack and reloaded once per simulated operation.
	Step(prev OpResult, op *Op) (ok bool)
}
