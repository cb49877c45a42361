package cchunter

import (
	"net/http"

	"cchunter/internal/auditor"
	"cchunter/internal/core"
	"cchunter/internal/faults"
	"cchunter/internal/obs"
	"cchunter/internal/recorder"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// Aliases re-exporting the analysis and data types that Scenario
// results are made of, so that users of the public API can name them
// without reaching into internal packages.
type (
	// Report is a full CC-Hunter analysis: one verdict per monitored
	// resource plus the overall detection decision.
	Report = core.Report
	// BurstAnalysis is the recurrent-burst detection outcome for one
	// combinational unit (memory bus, integer divider).
	BurstAnalysis = core.BurstAnalysis
	// OscillationAnalysis is the autocorrelation-based detection
	// outcome for the shared cache.
	OscillationAnalysis = core.OscillationAnalysis
	// ContentionVerdict pairs an indicator event kind with its burst
	// analysis.
	ContentionVerdict = core.ContentionVerdict
	// OscillationVerdict aggregates per-window oscillation analyses.
	OscillationVerdict = core.OscillationVerdict
	// Histogram is an event-density histogram.
	Histogram = stats.Histogram
	// QuantumHistogram is one OS-quantum's density histogram.
	QuantumHistogram = auditor.QuantumHistogram
	// CostModel holds the CC-Auditor hardware cost estimates
	// (Table I).
	CostModel = auditor.CostModel
	// Cost is one hardware structure's area/power/latency estimate.
	Cost = auditor.Cost
	// Train is a hardware event train.
	Train = trace.Train
	// Event is a single indicator-event occurrence.
	Event = trace.Event
	// EventKind identifies an indicator event.
	EventKind = trace.Kind
	// Peak is a local maximum in an autocorrelogram.
	Peak = stats.Peak
	// FaultConfig describes a sensor fault injection profile for the
	// event path between the hardware units and the CC-Auditor.
	FaultConfig = faults.Config
	// FaultStats counts what a run's fault injector did to the stream.
	FaultStats = faults.Stats
	// Degradation qualifies a verdict rendered from an imperfect
	// sensor path (loss, saturation, confidence).
	Degradation = core.Degradation
	// MetricsRegistry collects pipeline observability data (counters,
	// gauges, latency histograms) when assigned to Scenario.Metrics.
	// A nil registry disables recording at near-zero cost.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a frozen, JSON-marshalable copy of a
	// MetricsRegistry, attached to Report.Metrics on instrumented runs.
	MetricsSnapshot = obs.Snapshot
	// StreamingInfo is the streaming daemon's evidence block, attached
	// to Report.Streaming on Scenario.Stream runs.
	StreamingInfo = core.StreamingInfo
	// OnsetReport is one CUSUM change detector's channel-onset estimate
	// inside StreamingInfo.
	OnsetReport = core.OnsetReport
	// Flight is a flight-recorder capture: the raw event train around a
	// verdict plus the context needed to replay it deterministically.
	Flight = recorder.Flight
	// FlightMeta is the replay context a Flight carries.
	FlightMeta = recorder.Meta
)

// ReadFlight parses a flight-recorder capture file written by
// Flight.WriteFile (cchunt -record, or Result.Flight serialized).
func ReadFlight(path string) (Flight, error) { return recorder.ReadFile(path) }

// ReplayFlight replays a capture through a freshly built batch
// detection pipeline; the same flight always yields the same report.
func ReplayFlight(f Flight) (Report, error) { return recorder.Replay(f) }

// ReplayFlightStreaming replays a capture through the streaming
// daemon instead, exercising the incremental path; on a complete
// (untruncated) flight the verdict fields match ReplayFlight's.
func ReplayFlightStreaming(f Flight) (Report, error) { return recorder.ReplayStreaming(f) }

// NewMetricsRegistry returns an empty observability registry. Assign
// it to Scenario.Metrics before Run to instrument the pipeline; read
// the snapshot from Result.Report.Metrics afterwards, or serve it live
// with MetricsHandler.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsHandler serves a registry as JSON over HTTP — the live
// endpoint behind cchunt -metrics-addr. A nil registry serves "{}".
func MetricsHandler(r *MetricsRegistry) http.Handler { return obs.Handler(r) }

// ParseFaultSpec parses a comma-separated key=value fault
// specification (e.g. "drop=0.05,jitter=200,seed=7") into a
// FaultConfig; see FaultSpecKeys for the vocabulary.
func ParseFaultSpec(spec string) (FaultConfig, error) {
	return faults.ParseSpec(spec)
}

// FaultSpecKeys lists the keys ParseFaultSpec understands.
func FaultSpecKeys() []string { return faults.SpecKeys() }

// Indicator event kinds.
const (
	EventBusLock        = trace.KindBusLock
	EventDivContention  = trace.KindDivContention
	EventConflictMiss   = trace.KindConflictMiss
	EventRingContention = trace.KindRingContention
	EventTLBConflict    = trace.KindTLBConflict
)

// Paper-calibrated observation windows.
const (
	DeltaTBus     = core.DeltaTBus
	DeltaTDivider = core.DeltaTDivider
	DeltaTRing    = core.DeltaTRing
	DeltaTTLB     = core.DeltaTTLB
)

// EstimateAuditorCost computes the CC-Auditor hardware cost model
// (Table I) for the paper's default sizing.
func EstimateAuditorCost() CostModel {
	return auditor.EstimateCost(auditor.DefaultSizing())
}
