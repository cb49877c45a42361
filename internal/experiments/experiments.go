// Package experiments regenerates every table and figure of the
// paper's evaluation. Each Figure*/Table* function builds the
// corresponding scenario, runs it on the simulator, and returns the
// same rows/series the paper plots. Figures declares each one once —
// its -fig id and what it renders (summary, CSV series, event trains,
// benchmark metrics) — for cmd/ccrepro; EXPERIMENTS.md records the
// comparison against the paper.
//
// Parallelism: every simulator run inside a figure is an independent
// (configuration, seed) pair, so multi-run figures decompose into
// internal/runner jobs executed on a bounded worker pool
// (Options.Workers; cmd/ccrepro's -j flag). Each job captures its
// entire configuration — including its seed — before the pool starts,
// so the assembled figure is bit-for-bit identical at every worker
// count; Workers = 1 reproduces the serial path. See DESIGN.md §9 for
// the determinism contract.
//
// Scaling: the paper's machine runs at 2.5 GHz with a 0.1 s OS time
// quantum. Simulating minutes of that machine is event-bounded, not
// cycle-bounded, but the benign workloads still make full-scale runs
// slow; Options.TimeScale therefore shrinks the quantum and raises the
// nominal bandwidths by the same factor (default 100×), which
// preserves every quantity detection depends on — conflicts per bit,
// event densities per Δt, and bits per quantum. TimeScale = 1 runs at
// full paper scale.
package experiments

import (
	"fmt"

	"cchunter"
	"cchunter/internal/runner"
)

// The default run sizes of Figures 12 and 14, shared by Options and
// ccrepro's -messages and -quanta flags. The paper runs 256 messages
// and 512 quanta; Figure 14 runs the paper's size.
const (
	DefaultMessages = 32
	DefaultQuanta   = 512
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// TimeScale divides the OS quantum and multiplies bandwidths
	// (default 100; 1 = paper scale).
	TimeScale float64
	// MessageBits is the message length (default 64, the paper's
	// credit-card number).
	MessageBits int
	// Messages is how many random messages Figure 12 runs (default
	// DefaultMessages).
	Messages int
	// Quanta is how many OS quanta each Figure 14 benign pair runs
	// (default DefaultQuanta).
	Quanta int
	// Workers bounds the worker pool multi-run figures execute on
	// (default GOMAXPROCS; 1 = serial). Results are identical at
	// every worker count.
	Workers int
	// Metrics, when non-nil, instruments every scenario the experiment
	// runs (see Scenario.Metrics). The registry is race-safe, so a
	// figure's parallel sub-runs may share one; figure results are
	// byte-identical with or without it. ccrepro -metrics-out gives
	// each figure its own registry and dumps the snapshots.
	Metrics *cchunter.MetricsRegistry
}

func (o Options) norm() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 100
	}
	if o.MessageBits <= 0 {
		o.MessageBits = 64
	}
	if o.Messages <= 0 {
		o.Messages = DefaultMessages
	}
	if o.Quanta <= 0 {
		o.Quanta = DefaultQuanta
	}
	return o
}

// quantum returns the scaled OS time quantum in cycles.
func (o Options) quantum() uint64 {
	return uint64(250_000_000 / o.TimeScale)
}

// message returns the experiment's message bits.
func (o Options) message() []int {
	return cchunter.RandomMessage(o.MessageBits, o.Seed)
}

// rowScale returns the time scale usable for a burst-channel run at
// the given paper bandwidth. Scaling multiplies the bandwidth, but a
// bit slot must stay long enough to hold the channel's real
// microstructure — lock spacing, burst lengths, and several Δt
// observation windows — which does not compress. Capping the scaled
// bandwidth at 2500 actual bits/second (a 1M-cycle slot) preserves the
// paper's bits-per-quantum and events-per-Δt ratios at every sweep
// point.
func (o Options) rowScale(paperBPS float64) float64 {
	s := o.TimeScale
	if max := 2500 / paperBPS; s > max {
		s = max
	}
	if s < 1 {
		s = 1
	}
	return s
}

// rowQuantum is the scaled quantum for a burst-channel run.
func (o Options) rowQuantum(paperBPS float64) uint64 {
	return uint64(250_000_000 / o.rowScale(paperBPS))
}

// rowBPS is the scaled bandwidth for a burst-channel run.
func (o Options) rowBPS(paperBPS float64) float64 {
	return paperBPS * o.rowScale(paperBPS)
}

// Cache-channel experiments cap the time scale at 10×: one 512-set bit
// costs ~1.4M cycles of real cache work that no clock rescaling can
// compress, and the per-quantum oscillation analysis needs several
// bits per quantum (at paper scale: a 0.1 s quantum at ~100 bps).
func (o Options) cacheScale() float64 {
	if o.TimeScale > 10 {
		return 10
	}
	return o.TimeScale
}

// cacheQuantum returns the quantum used by cache-channel experiments.
func (o Options) cacheQuantum() uint64 {
	return uint64(250_000_000 / o.cacheScale())
}

// cacheBPS converts a paper-quoted cache-channel bandwidth.
func (o Options) cacheBPS(paperBPS float64) float64 {
	return paperBPS * o.cacheScale()
}

// run executes a scenario with the experiment's instrumentation,
// failing loudly: experiment configurations are code, so an error here
// is a bug, not user input.
func (o Options) run(sc cchunter.Scenario) *cchunter.Result {
	sc.Metrics = o.Metrics
	res, err := sc.Run()
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// runJobs executes a figure's sub-runs on the experiment worker pool,
// failing loudly like run: the jobs are built from code, so an error
// is a bug. Results come back in job order.
func (o Options) runJobs(jobs []runner.Job) []runner.Result {
	results, err := runner.Run(o.Workers, o.Seed, jobs)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return results
}

// scenarioJob wraps one scenario as a runner job that ignores the
// derived seed: the scenario's own Seed is part of the experiment's
// pinned configuration. The scenario runs with the experiment's
// metrics registry. The job's value is the *cchunter.Result, or, when
// reduce is non-nil, what reduce makes of it on the worker.
func (o Options) scenarioJob(name string, sc cchunter.Scenario, reduce func(*cchunter.Result) interface{}) runner.Job {
	sc.Metrics = o.Metrics
	return runner.Job{Name: name, Run: func(uint64) (interface{}, error) {
		res, err := sc.Run()
		if err != nil || reduce == nil {
			return res, err
		}
		return reduce(res), nil
	}}
}
