package sim

import (
	"testing"

	"cchunter/internal/cache"
	"cchunter/internal/ring"
)

// sweepProgram issues n loads, then finishes. The loads alternate,
// starting with a streaming one: streaming loads walk a working set
// of span lines with an odd stride from the stepper's own starting
// line; the others cycle through the lines below hot, which every
// core shares (the streaming lines sit above them).
type sweepProgram struct {
	n, hot, span, next, stride uint64
}

func (*sweepProgram) Name() string   { return "sweep" }
func (*sweepProgram) Begin(*Machine) {}
func (w *sweepProgram) Step(_ OpResult, op *Op) bool {
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
	span := uint64(2 * s.l2.NumBlocks())
	per := uint64(b.N/4 + 1)
	for c := 0; c < 4; c++ {
		s.Spawn(&sweepProgram{n: per, hot: 256, span: span, next: uint64(c) * span / 4, stride: 97}, Pin(2*c))
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(^uint64(0))
	b.StopTimer()
	if misses := s.L2Stats().Misses; misses < 4*per/2 {
		b.Fatalf("%d L2 misses in %d loads: the benchmark does not load the miss path", misses, 4*per)
	}
}

// cycleProgram issues n loads round robin over its first `lines`
// lines, then finishes.
type cycleProgram struct{ n, lines, next uint64 }

func (*cycleProgram) Name() string   { return "cycle" }
func (*cycleProgram) Begin(*Machine) {}
func (w *cycleProgram) Step(_ OpResult, op *Op) bool {
	if w.n == 0 {
		return false
	}
	w.n--
	*op = Op{Kind: OpLoad, Addr: w.next << 6}
	if w.next++; w.next == w.lines {
		w.next = 0
	}
	return true
}

// BenchmarkRingProbePath times the load path of the ring channel's
// probes: with the ring on and a one-set 8-way L1, one program cycles
// 16 lines, so every load misses the L1 (evicting the line loaded 8
// loads earlier), transits the ring to the line's slice (local, one
// hop either way, or two), and hits the L2, where each line has a set
// to itself and so sits in the MRU way. One op is one load; allocs/op
// must read 0.
func BenchmarkRingProbePath(b *testing.B) {
	cfg := TestConfig()
	cfg.Ring = ring.DefaultConfig()
	cfg.L1 = cache.Config{SizeBytes: 8 * 64, LineBytes: 64, Ways: 8, HitLatency: 4}
	s := MustNew(cfg)
	const lines = 16
	loads := uint64(b.N) + lines
	s.Spawn(&cycleProgram{n: loads, lines: lines}, Pin(0))
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(^uint64(0))
	b.StopTimer()
	l2 := s.L2Stats()
	rs, _ := s.RingStats()
	if l2.Misses != lines || l2.Hits != loads-lines || rs.Transits != loads {
		b.Fatalf("%d loads: L2 %+v, ring %+v; want %d L2 misses, every later load an L2 hit, every load a transit",
			loads, l2, rs, lines)
	}
}

// divNProgram issues n OpDivN runs, alternating 200 and 256 divisions
// (bzip2's and h264ref's batch sizes), each followed by a compute op,
// then finishes.
type divNProgram struct {
	n       int
	divided bool // the last op was a division run
}

func (*divNProgram) Name() string   { return "divn" }
func (*divNProgram) Begin(*Machine) {}
func (w *divNProgram) Step(_ OpResult, op *Op) bool {
	if w.divided {
		w.divided = false
		*op = Op{Kind: OpCompute, Cycles: 300}
		return true
	}
	if w.n == 0 {
		return false
	}
	w.n--
	w.divided = true
	*op = Op{Kind: OpDivN, Count: divNCount(w.n)}
	return true
}

// divNCount is the size of the run a divNProgram issues with n runs
// left after it.
func divNCount(n int) int { return 200 + 56*(n&1) }

// BenchmarkDivNPath times the batched division path of the benign
// divider-heavy programs: two sibling hyperthreads each issue OpDivN
// runs of 200 and 256 divisions with a compute op after each, so
// their runs overlap on the core's one divider. One op is one OpDivN
// run; allocs/op must read 0.
func BenchmarkDivNPath(b *testing.B) {
	s := MustNew(TestConfig())
	per := b.N/2 + 1
	var want uint64
	for c := 0; c < 2; c++ {
		s.Spawn(&divNProgram{n: per}, Pin(c))
		for i := 0; i < per; i++ {
			want += uint64(divNCount(i))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(^uint64(0))
	b.StopTimer()
	if got := s.cores[0].div.Stats().Divisions; got != want {
		b.Fatalf("%d divisions, want %d", got, want)
	}
}
