// Package obs is the observability layer of the detection pipeline: a
// metrics registry of counters, gauges, and fixed-bucket histograms
// backed by atomics, plus lightweight timing spans. Every stage of the
// pipeline — simulator engine, event batcher, fault injector,
// CC-Auditor, detectors, experiment runner — records what it sees into
// a Registry, and the registry is snapshotted as JSON for a live HTTP
// endpoint (cchunt -metrics-addr), a per-figure dump (ccrepro
// -metrics-out), or a Report's Metrics field.
//
// Two properties make the layer safe to compile into the hot path:
//
//   - Nil fast path. A nil *Registry hands out nil instruments, and
//     every instrument method is a nil-receiver no-op: one predictable
//     branch per call site, no allocation, no atomic traffic. The
//     pipeline is instrumented unconditionally and pays (measurably
//     <2%, see DESIGN.md §11) only when nobody asked for metrics.
//   - Lock-free recording. Instruments are registered once (under a
//     mutex) and then updated with plain atomic adds, so concurrent
//     experiment jobs can share one registry and a live HTTP reader
//     never blocks a recording writer.
//
// Metrics are observational only: nothing in the detection pipeline
// reads them back, so verdicts are byte-identical with and without a
// registry wired in (the golden-verdict suite pins this).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry. A nil *Registry is valid everywhere and disables
// recording at near-zero cost.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, ready-to-use registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. On a nil registry it returns nil, which is a valid no-op
// counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil registry → nil gauge (no-op).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (bounds must be
// sorted ascending; a final +Inf bucket is implicit). Re-requesting an
// existing histogram ignores bounds. Nil registry → nil histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing uint64. All methods are safe
// on a nil receiver and for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level. All methods are safe on a nil
// receiver and for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds (inclusive); observations above the last bound land in an
// implicit overflow bucket. Count and Sum are tracked exactly, so mean
// latencies and totals need no bucket arithmetic. All methods are safe
// on a nil receiver and for concurrent use.
type Histogram struct {
	bounds  []float64 // immutable after construction
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefaultLatencyBounds buckets nanosecond timings from 1µs to ~17min
// in powers of four — wide enough for a single Δt-window close and a
// whole figure run alike.
func DefaultLatencyBounds() []float64 {
	bounds := make([]float64, 16)
	v := 1e3
	for i := range bounds {
		bounds[i] = v
		v *= 4
	}
	return bounds
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.ObserveN(v, 1)
}

// ObserveN records n observations of v in one histogram update — the
// amortization hook for single-writer hot loops (e.g. the auditor's
// Δt-window closes) that tally locally and flush per quantum.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	// Binary search for the first bound >= v; linear would do for the
	// typical 16 buckets, but search keeps wide histograms honest.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(n)
	h.count.Add(n)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}
