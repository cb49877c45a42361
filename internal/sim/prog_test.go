package sim

// testProg is a test program made of rounds: round(m, i) returns the
// ops of round i, and an empty round ends the program. The result of
// every executed op is appended to res in issue order, so a test reads
// what its program observed after Run returns.
type testProg struct {
	name  string
	round func(m *Machine, i int) []Op

	m      *Machine
	ops    []Op // the current round
	i, k   int  // next round, next op of ops
	issued bool // an op is out, its result due in the next Step
	res    []OpResult
}

// loop builds a program from a round function.
func loop(name string, round func(m *Machine, i int) []Op) *testProg {
	return &testProg{name: name, round: round}
}

// once builds a program that runs the ops build returns, then ends.
func once(name string, build func(m *Machine) []Op) *testProg {
	return loop(name, func(m *Machine, i int) []Op {
		if i > 0 {
			return nil
		}
		return build(m)
	})
}

func (p *testProg) Name() string     { return p.name }
func (p *testProg) Begin(m *Machine) { p.m = m }

func (p *testProg) Step(prev OpResult, op *Op) bool {
	if p.issued {
		p.res = append(p.res, prev)
	}
	for p.k == len(p.ops) {
		p.ops, p.k = p.round(p.m, p.i), 0
		p.i++
		if len(p.ops) == 0 {
			p.issued = false
			return false
		}
	}
	*op = p.ops[p.k]
	p.k++
	p.issued = true
	return true
}

// Op constructors, to keep the scripts short.
func compute(n uint64) Op       { return Op{Kind: OpCompute, Cycles: n} }
func load(addr uint64) Op       { return Op{Kind: OpLoad, Addr: addr} }
func loadN(addrs []uint64) Op   { return Op{Kind: OpLoadN, Addrs: addrs} }
func atomic(addr uint64) Op     { return Op{Kind: OpAtomicUnaligned, Addr: addr} }
func div() Op                   { return Op{Kind: OpDiv} }
func divN(n int) Op             { return Op{Kind: OpDivN, Count: n} }
func now() Op                   { return Op{Kind: OpNow} }
func waitUntil(cycle uint64) Op { return Op{Kind: OpWaitUntil, Cycles: cycle} }
