package sim

import "testing"

// sweepStepper issues n loads, then finishes. The loads alternate,
// starting with a streaming one: streaming loads walk a working set
// of span lines with an odd stride from the stepper's own starting
// line; the others cycle through the lines below hot, which every
// core shares (the streaming lines sit above them).
type sweepStepper struct {
	n, hot, span, next, stride uint64
}

func (*sweepStepper) Name() string     { return "sweep" }
func (w *sweepStepper) Run(m *Machine) { RunSteps(w, m) }
func (*sweepStepper) Begin(*Machine)   {}
func (w *sweepStepper) Step(_ OpResult, op *Op) bool {
	if w.n == 0 {
		return false
	}
	w.n--
	line := w.n / 2 % w.hot
	if w.n&1 == 0 {
		w.next = (w.next + w.stride) % w.span
		line = w.hot + w.next
	}
	*op = Op{Kind: OpLoad, Addr: line << 6}
	return true
}

// BenchmarkL2MissPath times loads on four cores over a working set
// twice the size of the L2. Half the loads stream through it and miss
// the L1 and the L2; the other half hit a hot set every core's L1
// holds, which the stream keeps evicting from the L2 (L1 hits do not
// refresh the L2's recency). So the benchmark loads the whole miss
// path: the L1 fill and its presence bit, the L2's recency stack and
// victim choice, back-invalidation of the L1s whose presence bits
// name the victim, and the conflict tracker's Bloom bank. One op is
// one load; allocs/op must read 0.
func BenchmarkL2MissPath(b *testing.B) {
	s := MustNew(TestConfig())
	defer s.Close()
	span := uint64(2 * s.l2.NumBlocks())
	per := uint64(b.N/4 + 1)
	for c := 0; c < 4; c++ {
		s.Spawn(&sweepStepper{n: per, hot: 256, span: span, next: uint64(c) * span / 4, stride: 97}, Pin(2*c))
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(^uint64(0))
	b.StopTimer()
	if misses := s.L2Stats().Misses; misses < 4*per/2 {
		b.Fatalf("%d L2 misses in %d loads: the benchmark does not load the miss path", misses, 4*per)
	}
}
