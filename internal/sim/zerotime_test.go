package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cchunter/internal/trace"
)

// stallProgram issues nothing but zero-cycle computes, so its context's
// clock can never advance. Its last Step before the engine's panic
// (op maxZeroTimeOps+1) notes how many events the listener has seen.
type stallProgram struct {
	ops     int
	events  *eventCount
	atFinal int
}

func (*stallProgram) Name() string   { return "stall" }
func (*stallProgram) Begin(*Machine) {}
func (p *stallProgram) Step(_ OpResult, op *Op) bool {
	p.ops++
	if p.ops == maxZeroTimeOps+1 {
		p.atFinal = p.events.n
	}
	*op = Op{Kind: OpCompute, Cycles: 0}
	return true
}

// eventCount is a listener that counts the events it receives.
type eventCount struct{ n int }

func (l *eventCount) OnEvents(events []trace.Event) { l.n += len(events) }

// TestZeroTimeProgramPanics: a context whose every op takes zero
// cycles holds the minimum clock forever, so neither Run's exit nor a
// quantum boundary can fire. The engine panics instead of hanging,
// naming the program and its context, at the first zero-latency op
// past maxZeroTimeOps. The panic unwinds without parking programs or
// draining the delivery pipeline: the stalled program saw exactly the
// Step calls of the ops executed, and the bus-lock event still held in
// the batcher never reaches the listener. The run executes on its own
// goroutine so a regression fails the test instead of hanging it.
func TestZeroTimeProgramPanics(t *testing.T) {
	s := MustNew(TestConfig())
	var events eventCount
	s.AddListener(&events)
	s.Spawn(loop("locker", func(*Machine, int) []Op { return []Op{atomic(0)} }), Pin(0))
	stall := &stallProgram{events: &events}
	s.Spawn(stall, Pin(1))
	done := make(chan string, 1)
	go func() {
		defer func() { done <- fmt.Sprint(recover()) }()
		s.Run(1_000_000)
	}()
	select {
	case msg := <-done:
		for _, want := range []string{`program "stall"`, "context 1", "zero-latency"} {
			if !strings.Contains(msg, want) {
				t.Errorf("Run ended with %q, want a panic mentioning %q", msg, want)
			}
		}
		if stall.ops != maxZeroTimeOps+1 {
			t.Errorf("%d Step calls, want %d: the panic must come at op %d with no Step after it",
				stall.ops, maxZeroTimeOps+1, maxZeroTimeOps+1)
		}
		if locks := s.BusStats().Locks; locks == 0 {
			t.Fatal("no bus lock before the stall: the test emits no event to hold back")
		}
		if events.n != stall.atFinal {
			t.Errorf("listener received %d events after the panic (%d before it)", events.n-stall.atFinal, stall.atFinal)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return or panic within 30s: zero-time livelock")
	}
}
