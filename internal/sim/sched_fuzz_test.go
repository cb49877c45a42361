package sim

import (
	"testing"

	"cchunter/internal/cache"
)

// schedCheck wraps a test program and checks the engine's scheduling
// rule at each of its Step calls. The engine fetches a program's next
// op only when the program is at the head of the run queue of the
// context with the smallest (clock, context ID) among the contexts that
// have work, and then executes that op on that context, so at every
// fetch inside Run the program's context must be that minimum. The
// check finds the minimum by scanning every context, independently of
// the heap in ctxheap.go.
//
// The rule is checked at each fetch rather than as one global
// sequence: a migration may hand a process to an idle context with a
// smaller ID at the clock the engine has already reached, so the
// executed ops' context IDs may step back within one clock value while
// the rule still holds at every step. Clocks never step back.
type schedCheck struct {
	*testProg
	t     *testing.T
	s     *System
	until *uint64 // the target of the Run call in progress
	last  *uint64 // clock of the latest fetch inside Run, across programs

	proc      *Process
	fetchedAt uint64 // clock of the context when this program's last op was fetched
	issuedAt  uint64 // issue clock of this program's previous op
}

func (c *schedCheck) Begin(m *Machine) {
	c.proc = m.proc
	c.testProg.Begin(m)
}

func (c *schedCheck) Step(prev OpResult, op *Op) bool {
	ctx := c.proc.ctx
	if c.issued {
		// Without a clock-fuzz mitigation the result is exact: the op
		// issued at Now − Latency, no earlier than it was fetched and
		// no earlier than this program's previous op.
		issue := prev.Now - prev.Latency
		if issue < c.fetchedAt || issue < c.issuedAt {
			c.t.Fatalf("%s: op issued at %d, fetched at %d, previous op issued at %d",
				c.name, issue, c.fetchedAt, c.issuedAt)
		}
		c.issuedAt = issue
	}
	// Run stops once every context with work has reached until; a
	// fetch at or past it is the prefetch that parks programs at the
	// end of Run, which any context may do.
	if ctx.clock < *c.until {
		for _, o := range c.s.contexts {
			if len(o.runq) > 0 && (o.clock < ctx.clock || o.clock == ctx.clock && o.id < ctx.id) {
				c.t.Fatalf("%s fetched on context %d at clock %d, but context %d has work at clock %d",
					c.name, ctx.id, ctx.clock, o.id, o.clock)
			}
		}
		if ctx.runq[0] != c.proc {
			c.t.Fatalf("%s fetched on context %d behind %s", c.name, ctx.id, ctx.runq[0].name)
		}
		if ctx.clock < *c.last {
			c.t.Fatalf("%s fetched at clock %d after a fetch at clock %d", c.name, ctx.clock, *c.last)
		}
		*c.last = ctx.clock
	}
	c.fetchedAt = ctx.clock
	c.res = c.res[:0] // checked above; no need to keep them
	return c.testProg.Step(prev, op)
}

// FuzzEngineRunsMinClockFirst fuzzes machines of 1–4 cores × 1–2
// threads with a small quantum, optional migration, and up to six
// pinned or unpinned processes, each repeating (forever, or for three
// rounds) a script of Compute (zero cycles included), Now, WaitUntil,
// Load and Div. WaitUntil
// targets are multiples of 64 cycles, so contexts often share a clock
// and the tie-break by context ID is exercised. Loads share a small
// pool of lines across processes. Every fetch is checked by
// schedCheck, over two Run calls.
func FuzzEngineRunsMinClockFirst(f *testing.F) {
	f.Add([]byte{0x0f, 0x05, 0x00, 0x04, 0x00, 0x00, 0x02, 0x10, 0x01, 0x00, 0x03, 0x07, 0x04, 0x00})
	f.Add([]byte{0xeb, 0x03, 0x01, 0x02, 0x02, 0x01, 0x00, 0x00, 0x06, 0x03, 0x04, 0x01, 0x02, 0x05, 0x33})
	f.Add([]byte{0x7a, 0x05, 0x00, 0x03, 0x00, 0x00, 0x02, 0x40, 0x01, 0x00, 0x00, 0x01, 0x02, 0x02, 0x40, 0x03, 0x09})
	f.Add([]byte{0x01, 0x01, 0x01, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		b := next()
		cfg := TestConfig()
		cfg.Cores = 1 + int(b&3)
		cfg.ThreadsPerCore = 1 + int(b>>2&1)
		cfg.MigrationProb = []float64{0, 0.25, 0.5, 1}[b>>3&3]
		cfg.QuantumCycles = 500 * (1 + uint64(b>>5))
		// Small caches: cheap to build, and the shared loads evict.
		cfg.L1 = cache.Config{SizeBytes: 2 << 10, LineBytes: 64, Ways: 4, HitLatency: 4}
		cfg.L2 = cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, HitLatency: 12}
		s := MustNew(cfg)
		var until, last uint64
		procs := 1 + int(next()%6)
		for i := 0; i < procs; i++ {
			place := next()
			script := make([]Op, 1+next()%8)
			for k := range script {
				kind, arg := next(), uint64(next())
				switch kind % 5 {
				case 0:
					script[k] = compute(arg % 4 * 40) // 0, 40, 80 or 120 cycles
				case 1:
					script[k] = now()
				case 2:
					script[k] = waitUntil(arg * 64)
				case 3:
					script[k] = load((arg % 48) << 6)
				case 4:
					script[k] = div()
				}
			}
			prog := &schedCheck{t: t, s: s, until: &until, last: &last}
			finite := place&2 != 0
			var out []Op
			prog.testProg = loop("p", func(_ *Machine, round int) []Op {
				if finite && round == 3 {
					return nil
				}
				// Later rounds wait relative to their own start, so
				// WaitUntil keeps aligning contexts on shared clocks.
				// The closing compute keeps a round of zero-time ops
				// from holding the clock still forever.
				out = append(append(out[:0], script...), compute(32))
				for k := range out {
					if out[k].Kind == OpWaitUntil {
						out[k].Cycles += uint64(round) << 14
					}
				}
				return out
			})
			if place&1 != 0 {
				s.Spawn(prog, Pin(int(place>>2)%cfg.Contexts()))
			} else {
				s.Spawn(prog)
			}
		}
		for _, u := range []uint64{20_000, 60_000} {
			until = u
			s.Run(until)
		}
		if s.opCount == 0 {
			t.Fatal("no op ran")
		}
	})
}
