package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"cchunter/internal/obs"
)

// ErrWatchdog is wrapped by every watchdog-timeout error, so callers
// can errors.Is a supervised job's failure and publish a degraded
// verdict instead of aborting the run.
var ErrWatchdog = errors.New("runner: watchdog timeout")

// PanicError is the error a recovered job panic is converted into. The
// panic value and stack are preserved for the post-mortem; the pipeline
// itself keeps running.
type PanicError struct {
	// Job is the panicking job's name.
	Job string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %q panicked: %v", e.Job, e.Value)
}

// Supervise runs fn under a watchdog and panic recovery — the
// supervision contract of one detector job in a long-lived monitoring
// pipeline:
//
//   - fn receives a context that is cancelled when the watchdog fires,
//     so a cooperative job can stop early;
//   - a panic inside fn is recovered into a *PanicError result;
//   - if fn has not returned within timeout, Supervise cancels the
//     context, waits a short grace period for a cooperative exit, and
//     then abandons the goroutine, returning an ErrWatchdog-wrapped
//     error. The abandoned goroutine keeps its panic recovery, so a
//     late crash cannot take the process down either. A result fn
//     returns after the deadline is discarded the same way, even if
//     it reaches Supervise before the timer does.
//
// A zero timeout disables the watchdog (fn runs on the calling
// goroutine; only panic recovery applies). reg, which may be nil,
// tallies runner.watchdog_fired and runner.panics_recovered.
func Supervise(ctx context.Context, name string, timeout time.Duration, reg *obs.Registry, fn func(ctx context.Context) (interface{}, error)) (interface{}, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	run := func(ctx context.Context) (v interface{}, err error) {
		defer func() {
			if r := recover(); r != nil {
				reg.Counter("runner.panics_recovered").Inc()
				v, err = nil, &PanicError{Job: name, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(ctx)
	}
	if timeout <= 0 {
		return run(ctx)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		v    interface{}
		err  error
		late bool // fn returned after the deadline
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		var o outcome
		o.v, o.err = run(ctx)
		o.late = time.Since(start) > timeout
		ch <- o
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		if !o.late {
			return o.v, o.err
		}
		// fn overran but its result arrived before the timer was
		// serviced; the deadline, not the race between the two
		// channels, decides.
	case <-timer.C:
		cancel()
		// Grace period: a job that honors its context comes back
		// quickly and the goroutine is reaped; an unresponsive one is
		// abandoned (it still carries panic recovery).
		grace := timeout / 4
		if grace > 100*time.Millisecond {
			grace = 100 * time.Millisecond
		}
		graceTimer := time.NewTimer(grace)
		defer graceTimer.Stop()
		select {
		case <-ch:
		case <-graceTimer.C:
		}
	}
	reg.Counter("runner.watchdog_fired").Inc()
	return nil, fmt.Errorf("%w: job %q exceeded %v", ErrWatchdog, name, timeout)
}
