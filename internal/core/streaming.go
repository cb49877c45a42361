package core

import "cchunter/internal/trace"

// OnsetReport is a change-detection verdict over one detector's
// decision statistic: when (in simulated cycles) the statistic first
// departed from its quiescent regime. The streaming daemon runs a
// CUSUM with an adaptive threshold over the sliding likelihood-ratio
// series (burst detectors) and the per-window peak series (oscillation
// detector); the batch path never produces one.
type OnsetReport struct {
	// Kind is the monitored indicator event the series came from.
	Kind trace.Kind `json:"kind"`
	// Detected reports whether the change detector fired.
	Detected bool `json:"detected"`
	// OnsetCycle is the simulated cycle at which the fired statistic
	// last left zero — the estimated start of the covert transmission.
	OnsetCycle uint64 `json:"onsetCycle"`
	// OnsetIndex is the sample index (quantum or observation window
	// ordinal) corresponding to OnsetCycle.
	OnsetIndex int `json:"onsetIndex"`
	// FiredCycle is the cycle of the sample that pushed the statistic
	// over threshold; OnsetCycle <= FiredCycle, and the gap is the
	// detection latency.
	FiredCycle uint64 `json:"firedCycle"`
	// Statistic is the CUSUM value when it fired (or its final value
	// when it never did).
	Statistic float64 `json:"statistic"`
	// Threshold is the (possibly adapted) threshold in effect at the
	// firing sample.
	Threshold float64 `json:"threshold"`
	// Samples is how many series samples the detector consumed.
	Samples int `json:"samples"`
}

// StreamingInfo carries the streaming daemon's extra evidence. It is
// only ever attached by the streaming path (internal/stream); the
// batch detector leaves it nil, which keeps batch reports — and the
// pinned golden corpus — byte-identical.
type StreamingInfo struct {
	// Quanta is how many OS time quanta the daemon drained.
	Quanta int `json:"quanta"`
	// WindowsAnalyzed is how many oscillation observation windows were
	// closed and analyzed mid-run.
	WindowsAnalyzed int `json:"windowsAnalyzed"`
	// WindowsRetained is how many window analyses the verdict carries;
	// under bounded retention it can be smaller than WindowsAnalyzed.
	WindowsRetained int `json:"windowsRetained"`
	// PeakRetainedEvents is the largest number of conflict-train
	// entries held at any point — the O(window) memory bound the
	// streaming path exists for. The daemon drains once per delivered
	// batch, so this high-water mark, unlike every other field of a
	// Result, depends on the event-delivery batch size: a cache
	// channel run reads 257, 272 and 348 at batch sizes 1, 37 and 512.
	PeakRetainedEvents int `json:"peakRetainedEvents"`
	// Onsets holds one change-detection report per monitored series.
	Onsets []OnsetReport `json:"onsets,omitempty"`
	// EventsShed counts events dropped by a bounded ingest queue in
	// front of the daemon (0 when ingest ran unbounded).
	EventsShed uint64 `json:"eventsShed,omitempty"`
}

// Onset returns the streaming onset report for kind (nil when the
// daemon monitored no such series or streaming was off).
func (r *Report) Onset(kind trace.Kind) *OnsetReport {
	if r == nil || r.Streaming == nil {
		return nil
	}
	for i := range r.Streaming.Onsets {
		if r.Streaming.Onsets[i].Kind == kind {
			return &r.Streaming.Onsets[i]
		}
	}
	return nil
}

// DegradedReport builds the verdict a supervised pipeline publishes
// when a detector job died (panicked or overran its watchdog) instead
// of rendering an analysis: no detection claim either way, zero
// confidence, and the failure reason on record. A monitoring fleet
// treats it as "re-observe", never as "clean".
func DegradedReport(reason string) Report {
	return Report{
		Confidence: 0,
		Failure:    reason,
	}
}
