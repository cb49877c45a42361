package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is how long the timed (or traced) passes run; every run
	// makes at least one pass.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) instead of the
	// untraced one (end-to-end metrics).
	Trace bool
	// Reference is the seed's committed reference, or nil to check that
	// the run's paths agree instead.
	Reference *Reference
	// Hosts is the fleet's producer count (0 = runtime.NumCPU()).
	Hosts int
	// Log receives progress and diagnostics.
	Log io.Writer
}

// Outcome is a run's result line.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run is one benchmark run in progress: its tallies, the checks that
// ran, and the metrics it reports.
type Run struct {
	opt       Options
	Checks    []string
	Diffs     []string
	attempted int
	failed    int
	metrics   map[string]Metric
}

// Execute performs the run described by o.
func Execute(o Options) (*Run, error) {
	if o.Hosts <= 0 {
		o.Hosts = runtime.NumCPU()
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	r := &Run{opt: o, metrics: map[string]Metric{}}
	var err error
	switch o.Workload {
	case Frontier:
		err = r.scenarios(FrontierCells)
	case BenignMix:
		err = r.scenarios(BenignCells)
	case Fleet:
		err = r.fleet()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, Workloads)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Outcome returns the result line.
func (r *Run) Outcome() Outcome {
	return Outcome{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

func (r *Run) set(name string, v float64, unit string) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *Run) check(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// op tallies one attempted operation; a non-empty diff fails it.
func (r *Run) op(diff string) {
	if diff == "" {
		r.ops(1, 0, nil)
	} else {
		r.ops(1, 1, []string{diff})
	}
}

// ops tallies n attempted operations of which failed (at most n)
// failed; the first maxDiffs diffs are kept for the report.
func (r *Run) ops(n, failed int, diffs []string) {
	r.attempted += n
	r.failed += min(failed, n)
	for _, d := range diffs {
		if len(r.Diffs) < maxDiffs {
			r.Diffs = append(r.Diffs, d)
		}
	}
}

const maxDiffs = 20

func (r *Run) logf(format string, args ...any) {
	fmt.Fprintf(r.opt.Log, format+"\n", args...)
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func (r *Run) setShares(samples LayerSamples) {
	for layer, share := range samples.Shares() {
		r.set("cpu."+layer, share, "ratio")
	}
	r.logf("cpu profile: %d samples", samples.Total())
}

func (r *Run) setDedup(recorded, deduped uint64) {
	ratio := 0.0
	if recorded+deduped > 0 {
		ratio = float64(deduped) / float64(recorded+deduped)
	}
	r.set("auditor.dedup_ratio", ratio, "ratio")
}

func (r *Run) setErrorFrac() {
	r.set("error_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
}

// deadline paces a run's passes: the first always starts, and another
// starts only if, taking as long as the one before it, it would end
// within the run's seconds.
type deadline struct {
	start, passStart time.Time
	limit            time.Duration
}

func newDeadline(seconds float64) *deadline {
	now := time.Now()
	return &deadline{start: now, passStart: now, limit: time.Duration(seconds * float64(time.Second))}
}

// more reports whether pass (counted from 0) should start.
func (d *deadline) more(pass int) bool {
	now := time.Now()
	last := now.Sub(d.passStart)
	d.passStart = now
	return pass == 0 || now.Sub(d.start)+last <= d.limit
}

// elapsed is the time since the run's passes began.
func (d *deadline) elapsed() time.Duration { return time.Since(d.start) }
