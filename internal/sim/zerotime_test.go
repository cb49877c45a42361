package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// stallProgram issues nothing but zero-cycle computes, so its context's
// clock can never advance.
type stallProgram struct{ ops int }

func (*stallProgram) Name() string   { return "stall" }
func (*stallProgram) Begin(*Machine) {}
func (p *stallProgram) Step(_ OpResult, op *Op) bool {
	p.ops++
	*op = Op{Kind: OpCompute, Cycles: 0}
	return true
}

// TestZeroTimeProgramPanics: a context whose every op takes zero
// cycles holds the minimum clock forever, so neither Run's exit nor a
// quantum boundary can fire. The engine panics instead of hanging,
// naming the program and its context, once the run of zero-latency ops
// passes maxZeroTimeOps. The run executes on its own goroutine so a
// regression fails the test instead of hanging it.
func TestZeroTimeProgramPanics(t *testing.T) {
	s := MustNew(TestConfig())
	s.Spawn(spinProgram{}, Pin(0))
	stall := &stallProgram{}
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
		if stall.ops <= maxZeroTimeOps {
			t.Errorf("panic after %d ops, before the bound of %d", stall.ops, maxZeroTimeOps)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return or panic within 30s: zero-time livelock")
	}
}
