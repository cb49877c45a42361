package runner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cchunter/internal/obs"
)

func TestSupervisePanicRecovered(t *testing.T) {
	reg := obs.NewRegistry()
	v, err := Supervise(context.Background(), "boom", 0, reg,
		func(context.Context) (interface{}, error) { panic("kaboom") })
	if v != nil {
		t.Errorf("panicking job returned a value: %v", v)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Job != "boom" || pe.Value != "kaboom" {
		t.Errorf("panic error carries %q/%v", pe.Job, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Errorf("error text %q hides the panic value", pe.Error())
	}
	if got := reg.Snapshot().Counters["runner.panics_recovered"]; got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

func TestSuperviseWatchdogAbandonsStuckJob(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	_, err := Supervise(context.Background(), "stuck", 50*time.Millisecond, reg,
		func(context.Context) (interface{}, error) {
			<-release // ignores its context entirely
			return nil, nil
		})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("abandonment took %v; grace period not bounded", elapsed)
	}
	if got := reg.Snapshot().Counters["runner.watchdog_fired"]; got != 1 {
		t.Errorf("watchdog_fired = %d, want 1", got)
	}
}

func TestSuperviseCooperativeCancel(t *testing.T) {
	_, err := Supervise(context.Background(), "coop", 30*time.Millisecond, nil,
		func(ctx context.Context) (interface{}, error) {
			<-ctx.Done() // honors cancellation
			return nil, ctx.Err()
		})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
}

func TestSuperviseFastJobUnaffected(t *testing.T) {
	v, err := Supervise(context.Background(), "quick", time.Minute, nil,
		func(context.Context) (interface{}, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("got (%v, %v), want (42, nil)", v, err)
	}
}

// TestPoolRecoversPanic: a supervised pool converts a panicking job
// into a typed failure while a concurrently dispatched healthy job
// still completes (both jobs are claimed before the failure can stop
// dispatch).
func TestPoolRecoversPanic(t *testing.T) {
	reg := obs.NewRegistry()
	jobs := []Job{
		{Name: "panics", Run: func(uint64) (interface{}, error) { panic("dead detector") }},
		{Name: "ok", Run: func(seed uint64) (interface{}, error) { return seed, nil }},
	}
	results, err := Pool{Workers: 2, Watchdog: time.Minute, Metrics: reg}.Run(1, jobs)
	if err == nil {
		t.Fatal("pool swallowed the panic")
	}
	if !results[0].Panicked {
		t.Errorf("panicking job not flagged: %+v", results[0])
	}
	var pe *PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Errorf("panic result err = %v, want *PanicError", results[0].Err)
	}
	if reg.Snapshot().Counters["runner.panics_recovered"] == 0 {
		t.Error("panic not counted")
	}
}

// TestPoolWatchdogFlagsStuckJob: the pool-level watchdog abandons an
// unresponsive job, flags it, and counts the fire.
func TestPoolWatchdogFlagsStuckJob(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	defer close(release)
	jobs := []Job{
		{Name: "hangs", Run: func(uint64) (interface{}, error) { <-release; return nil, nil }},
		{Name: "ok", Run: func(uint64) (interface{}, error) { return "fine", nil }},
	}
	results, err := Pool{Workers: 2, Watchdog: 30 * time.Millisecond, Metrics: reg}.Run(1, jobs)
	if err == nil {
		t.Fatal("pool reported success despite a stuck job")
	}
	if !results[0].TimedOut {
		t.Errorf("hung job not flagged as timed out: %+v", results[0])
	}
	if results[1].Err != nil {
		t.Errorf("healthy job failed: %+v", results[1])
	}
	if reg.Snapshot().Counters["runner.watchdog_fired"] == 0 {
		t.Error("watchdog fire not counted")
	}
}

// TestPoolSupervisedDeterminism: supervision must not disturb the
// pool's bit-for-bit contract — supervised and unsupervised runs of
// healthy jobs produce identical values in identical order.
func TestPoolSupervisedDeterminism(t *testing.T) {
	mkJobs := func() []Job {
		var jobs []Job
		for _, name := range []string{"a", "b", "c", "d", "e"} {
			jobs = append(jobs, Job{
				Name: name,
				Run:  func(seed uint64) (interface{}, error) { return seed, nil },
			})
		}
		return jobs
	}
	plain, err := Pool{Workers: 2}.Run(7, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Pool{Workers: 2, Watchdog: time.Minute}.Run(7, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Value != guarded[i].Value || plain[i].Name != guarded[i].Name {
			t.Errorf("job %d diverged under supervision: %v vs %v",
				i, plain[i].Value, guarded[i].Value)
		}
	}
}
