package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"cchunter/internal/stats"
)

// bench.go is the benchmark-trajectory emitter: ccrepro -bench-out
// wraps each figure job in wall-clock and allocation accounting and
// writes one JSON document per run. CI compares successive documents
// (tools/benchcmp) so a performance regression in the detection
// pipeline fails the build instead of silently accumulating.

// BenchSchema versions the report format for the comparison tool.
const BenchSchema = "cchunter-bench/1"

// BenchFigure is one figure's measured cost and key detection metrics.
// The metrics pin correctness alongside speed: a "faster" pipeline
// that changes a likelihood ratio or a fundamental lag is a broken
// pipeline, and the comparison tool treats metric drift as failure.
type BenchFigure struct {
	// ID is the figure identifier as passed to -fig.
	ID string `json:"id"`
	// NS is the figure's wall-clock time in nanoseconds.
	NS int64 `json:"ns"`
	// Allocs and Bytes are the heap allocation count and volume during
	// the figure (runtime.MemStats deltas; valid because -bench-out
	// forces serial execution).
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	// Metrics are the figure's scalar detection outcomes (likelihood
	// ratios, peak lags, bit errors ...). Deterministic given seed and
	// scale, so the comparison is (near-)exact.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the whole -bench-out document.
type BenchReport struct {
	Schema string `json:"schema"`
	// CalibrationNS is the runtime of a fixed reference workload on
	// the machine that produced the report. Comparing ns across
	// machines is meaningless; comparing ns scaled by the calibration
	// ratio is merely noisy, which a tolerance absorbs.
	CalibrationNS int64         `json:"calibration_ns"`
	GoVersion     string        `json:"go_version"`
	Seed          uint64        `json:"seed"`
	TimeScale     float64       `json:"time_scale"`
	Figures       []BenchFigure `json:"figures"`
}

// Calibrate times the reference workload: a paper-scale FFT
// autocorrelation (n=65536, maxLag=4096), best of three. It exercises
// the same arithmetic the detection pipeline leans on, so its runtime
// tracks the machine speed that matters for the figures.
func Calibrate() int64 {
	xs := make([]float64, 65536)
	for i := range xs {
		xs[i] = float64(i%17) - 8
	}
	w := stats.NewWorkspace()
	best := int64(0)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		w.Autocorrelogram(xs, 4096)
		ns := time.Since(t0).Nanoseconds()
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// NewBenchReport returns an empty report stamped with the current
// machine calibration and toolchain.
func NewBenchReport(seed uint64, timeScale float64) BenchReport {
	return BenchReport{
		Schema:        BenchSchema,
		CalibrationNS: Calibrate(),
		GoVersion:     runtime.Version(),
		Seed:          seed,
		TimeScale:     timeScale,
	}
}

// WriteBenchReport writes the report as indented JSON. Map keys
// marshal sorted, so equal reports produce equal bytes.
func WriteBenchReport(w io.Writer, rep BenchReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadBenchReport parses a -bench-out document, rejecting unknown
// schemas.
func ReadBenchReport(r io.Reader) (BenchReport, error) {
	var rep BenchReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return rep, err
	}
	if rep.Schema != BenchSchema {
		return rep, fmt.Errorf("experiments: unknown bench schema %q", rep.Schema)
	}
	return rep, nil
}
