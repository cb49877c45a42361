// Package runner is the experiment orchestrator: a bounded worker
// pool that executes a set of named, independent jobs in parallel
// while guaranteeing that the results are bit-for-bit identical to a
// serial run.
//
// The contract that makes this possible has three parts:
//
//  1. Jobs are closures over their own inputs. A job must not read
//     mutable state shared with another job; everything it needs is
//     captured at decomposition time, before any job runs.
//  2. Randomness is derived, never shared. Each job receives a seed
//     computed by DeriveSeed(rootSeed, jobName) — a SplitMix-style
//     hash — so a job's random stream depends only on the root seed
//     and its own stable name, not on which worker picks it up or in
//     what order jobs finish.
//  3. Results are reported in input order. Pool.Run returns one
//     Result per job, indexed exactly like the job slice, regardless
//     of completion order.
//
// Under this contract, worker count is a pure throughput knob:
// Pool{Workers: 1} reproduces the serial path and any other worker
// count produces the same bytes. cmd/ccrepro's determinism gate and
// the tests in this package enforce that equivalence.
//
// Allocation behavior at steady state: jobs draw their analysis
// scratch buffers — label series, running minima, discretized feature
// vectors — from the size-classed arena in internal/pool, and their
// autocorrelation and k-means workspaces from core.Workspace's own
// pool, and return both when the job's detector finishes
// (Detector.Release). sync.Pool keeps per-P free lists, so a worker
// that runs many similar jobs quickly re-acquires the buffers the
// previous job on that worker released, and a long `ccrepro -j N`
// sweep reaches a steady state where the analysis hot path allocates
// nothing per job. Recycled scratch is zeroed or overwritten before
// use, so reuse cannot leak state between jobs — the bit-for-bit
// guarantee above is unaffected.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cchunter/internal/obs"
	"cchunter/internal/stats"
)

// Job is one named unit of work. Name must be unique within a Run
// call and stable across runs: it is the job's identity for seed
// derivation, progress reporting, and timing summaries.
type Job struct {
	Name string
	// Run produces the job's result. The seed argument is
	// DeriveSeed(rootSeed, Name); jobs that pin their own seeds (for
	// example, to reproduce a documented paper configuration) may
	// ignore it.
	Run func(seed uint64) (interface{}, error)
	// Stages, when set, is called once after Run returns to harvest
	// per-stage time attribution (e.g. an obs.Registry's StageTimes).
	// It runs on the job's worker, before the result is reported, so
	// it may read state Run wrote without synchronization.
	Stages func() map[string]time.Duration
}

// Result is one job's outcome, delivered in input order.
type Result struct {
	// Name echoes the job's name.
	Name string
	// Value is whatever the job returned.
	Value interface{}
	// Err is the job's error, nil on success.
	Err error
	// Elapsed is the job's wall-clock execution time.
	Elapsed time.Duration
	// Worker is the index of the worker that ran the job (0-based).
	// Informational only: results never depend on it.
	Worker int
	// Panicked reports the job died by panic and was recovered
	// (Err is a *PanicError).
	Panicked bool
	// TimedOut reports the watchdog abandoned the job (Err wraps
	// ErrWatchdog).
	TimedOut bool
	// Stages is the job's per-stage time attribution, nil unless the
	// job provided a Stages hook. Informational only, like Elapsed.
	Stages map[string]time.Duration
}

// Progress is a snapshot delivered to Pool.OnProgress after each job
// completes. Callbacks are serialized; they never run concurrently.
type Progress struct {
	// Last is the job that just finished.
	Last Result
	// Done and Total count completed and scheduled jobs.
	Done, Total int
	// Elapsed is wall-clock time since Run started; ETA is the
	// remaining-time estimate assuming uniform job cost.
	Elapsed, ETA time.Duration
}

// Pool executes jobs across a bounded set of workers.
type Pool struct {
	// Workers bounds concurrent jobs. Zero or negative means
	// runtime.GOMAXPROCS(0). Workers == 1 is the serial path.
	Workers int
	// OnProgress, when set, is called after each job completes.
	OnProgress func(Progress)
	// Watchdog, when positive, supervises every job: an overrunning
	// job is abandoned with an ErrWatchdog-wrapped error, and a
	// panicking one becomes a *PanicError result instead of crashing
	// the process (an abandoned goroutine's late panic must not take
	// the pool down either). Zero disables supervision: jobs run on the
	// worker goroutine itself.
	Watchdog time.Duration
	// Metrics, which may be nil, tallies runner.watchdog_fired and
	// runner.panics_recovered.
	Metrics *obs.Registry
}

// Run executes every job and returns their results in input order.
//
// On the first job error, no further jobs are started; jobs already
// in flight run to completion and their results are kept. The
// returned error is the lowest-indexed job error (so which error is
// reported does not depend on scheduling), wrapped with its job name;
// the full per-job picture stays available in the results.
func (p Pool) Run(rootSeed uint64, jobs []Job) ([]Result, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	seen := make(map[string]struct{}, len(jobs))
	for _, j := range jobs {
		if j.Name == "" {
			return nil, fmt.Errorf("runner: job with empty name")
		}
		if _, dup := seen[j.Name]; dup {
			return nil, fmt.Errorf("runner: duplicate job name %q", j.Name)
		}
		if j.Run == nil {
			return nil, fmt.Errorf("runner: job %q has no Run function", j.Name)
		}
		seen[j.Name] = struct{}{}
	}

	results := make([]Result, len(jobs))
	start := time.Now()
	var (
		mu     sync.Mutex
		next   int  // index of the next job to dispatch
		failed bool // stop dispatching new jobs
		wg     sync.WaitGroup

		// progressMu serializes the OnProgress callbacks and guards
		// done, so Done counts reach the callback in order. It is not
		// mu: a slow callback must not hold up job dispatch.
		progressMu sync.Mutex
		done       int // completed job count
	)
	// claim hands out the next undispatched job index, or false once
	// the jobs are exhausted or a failure stopped the pool.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next >= len(jobs) {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	complete := func(i int, r Result) {
		mu.Lock()
		results[i] = r
		if r.Err != nil {
			failed = true
		}
		mu.Unlock()
		if p.OnProgress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		elapsed := time.Since(start)
		p.OnProgress(Progress{Last: r, Done: done, Total: len(jobs), Elapsed: elapsed,
			ETA: elapsed / time.Duration(done) * time.Duration(len(jobs)-done)})
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				job := jobs[i]
				t0 := time.Now()
				v, err := p.execute(job, DeriveSeed(rootSeed, job.Name))
				r := Result{
					Name:    job.Name,
					Value:   v,
					Err:     err,
					Elapsed: time.Since(t0),
					Worker:  worker,
				}
				var pe *PanicError
				r.Panicked = errors.As(err, &pe)
				r.TimedOut = errors.Is(err, ErrWatchdog)
				if job.Stages != nil {
					r.Stages = job.Stages()
				}
				complete(i, r)
			}
		}(w)
	}
	wg.Wait()

	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("runner: job %q: %w", jobs[i].Name, results[i].Err)
		}
	}
	return results, nil
}

// execute runs one job under the pool's supervision policy. With no
// watchdog, the job runs directly on the worker goroutine.
func (p Pool) execute(job Job, seed uint64) (interface{}, error) {
	if p.Watchdog <= 0 {
		return job.Run(seed)
	}
	return Supervise(context.Background(), job.Name, p.Watchdog, p.Metrics,
		func(context.Context) (interface{}, error) { return job.Run(seed) })
}

// Run is the convenience form: a pool with the given worker count and
// no progress callback.
func Run(workers int, rootSeed uint64, jobs []Job) ([]Result, error) {
	return Pool{Workers: workers}.Run(rootSeed, jobs)
}

// DeriveSeed hashes (rootSeed, jobName) into a job-private RNG seed
// using SplitMix64 finalization steps. The derivation is stable
// across runs, platforms, and worker counts, collision-resistant
// enough for experiment fan-outs, and never returns zero (several
// seed consumers treat zero as "use the default").
func DeriveSeed(rootSeed uint64, jobName string) uint64 {
	z := mix64(rootSeed ^ 0x9e3779b97f4a7c15)
	for i := 0; i < len(jobName); i++ {
		z = mix64(z ^ uint64(jobName[i])*0x100000001b3)
	}
	if z == 0 {
		z = 0x853c49e6748fea9b
	}
	return z
}

// mix64 is one SplitMix64 step: the golden-gamma increment, then the
// output finalizer.
func mix64(z uint64) uint64 { return stats.Mix64(z + 0x9e3779b97f4a7c15) }
