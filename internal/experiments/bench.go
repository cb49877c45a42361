package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
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

// Calibrate times the reference workload, best of three: a fixed
// loop of integer hashing, floating-point multiply-adds and strided
// loads over a 512 KiB buffer (about 10 ms on a 2-core Xeon). It calls
// no code of this module, so no optimisation of the pipeline moves
// it and the ratio tools/benchcmp derives from two reports tracks the
// machines alone. Changing the loop invalidates every committed
// baseline's calibration_ns.
func Calibrate() int64 {
	buf := make([]float64, 1<<16)
	best := int64(0)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		calibrationSink = calibrationLoop(buf)
		ns := time.Since(t0).Nanoseconds()
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// calibrationSink keeps the calibration loop's result live.
var calibrationSink float64

// calibrationLoop is Calibrate's frozen workload.
func calibrationLoop(buf []float64) float64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = float64(x>>11) * 0x1p-53
	}
	mask := len(buf) - 1
	acc := 0.0
	for pass := 0; pass < calibrationPasses; pass++ {
		for i := range buf {
			j := (i*7 + pass) & mask
			acc = float64(acc*0.999) + float64(buf[i]*buf[j])
			buf[i] = buf[j] - float64(acc*1e-9)
		}
	}
	return acc
}

// calibrationPasses sizes the loop to about 10 ms per repetition.
const calibrationPasses = 48

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
