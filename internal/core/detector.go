package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"cchunter/internal/auditor"
	"cchunter/internal/obs"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// DetectorConfig is the daemon's observation policy. The detection
// thresholds themselves are the paper's constants, declared beside
// the algorithms that read them (burst.go, oscillation.go).
type DetectorConfig struct {
	// QuantumCycles is the OS time quantum.
	QuantumCycles uint64
	// WindowQuanta bounds how many OS time quanta one burst analysis
	// covers (paper: 512, i.e. 51.2 s, "to avoid diluting the
	// significance of event density histograms"); the most recent
	// quanta are kept. 0 analyzes every recorded quantum.
	WindowQuanta int
	// ObservationDivisor splits each quantum into this many oscillation
	// observation windows (§VI-A: finer-grained windows — 0.75×, 0.5×,
	// 0.25× of a quantum — detect low-bandwidth channels more
	// effectively). 1 analyzes whole quanta.
	ObservationDivisor int
	// UpstreamLossRate is the fraction of indicator events known to
	// have been lost *before* the auditor saw them (a fault injector or
	// a real telemetry path that reports its own drops). It folds into
	// every verdict's Degradation; 0 for a pristine sensor path.
	UpstreamLossRate float64
	// Metrics, when non-nil, receives analysis observability: per-stage
	// timing spans (burst scan, oscillation lag scan), window and
	// verdict counters, and FFT-vs-naive autocorrelation path tallies.
	// Observational only — verdicts are byte-identical either way.
	Metrics *obs.Registry
}

// DefaultDetectorConfig returns the paper-calibrated detector for a
// machine with the given quantum. The second argument, once the
// hardware context count, is unused: no analysis reads it.
func DefaultDetectorConfig(quantumCycles uint64, _ int) DetectorConfig {
	return DetectorConfig{
		QuantumCycles:      quantumCycles,
		WindowQuanta:       512,
		ObservationDivisor: 1,
	}
}

// ObservationWindow is the oscillation observation window in cycles:
// the quantum split ObservationDivisor ways, or whole quanta when the
// divisor is below 2 or the split rounds to zero.
func (c DetectorConfig) ObservationWindow() uint64 {
	if c.ObservationDivisor > 1 {
		if w := c.QuantumCycles / uint64(c.ObservationDivisor); w > 0 {
			return w
		}
	}
	return c.QuantumCycles
}

// Degradation qualifies a verdict rendered from an imperfect sensor
// path. A detector that keeps producing verdicts under dropped or
// saturated events must say how much it saw; "no channel" from a
// sensor that lost half its events is a different statement than "no
// channel" from a pristine one.
type Degradation struct {
	// EventLossRate is the estimated fraction of indicator events the
	// sensor path lost upstream before this detector analyzed them.
	EventLossRate float64
	// SaturationRate is the fraction of Δt observation windows whose
	// recorded density is a floor rather than an exact count (16-bit
	// accumulator ceilings and 128-entry histogram-bin clamps).
	SaturationRate float64
	// ClampedTimestamps counts recorded events whose arrival order
	// contradicted their timestamps; non-zero means the train's
	// fine-grained ordering is partly reconstructed.
	ClampedTimestamps uint64
	// Confidence folds the diagnostics into one [0,1] factor: the
	// fraction of the evidence base that was delivered intact. 1 means
	// a pristine path; verdicts at low confidence should be re-observed
	// rather than acted on.
	Confidence float64
	// Degraded reports whether any diagnostic is non-zero.
	Degraded bool
}

// degradation folds raw diagnostics into the exported struct.
func degradation(lossRate, satRate float64, clamped, events uint64) Degradation {
	d := Degradation{
		EventLossRate:     clamp01(lossRate),
		SaturationRate:    clamp01(satRate),
		ClampedTimestamps: clamped,
	}
	clampShare := 0.0
	if events > 0 {
		clampShare = clamp01(float64(clamped) / float64(events))
	}
	d.Confidence = (1 - d.EventLossRate) * (1 - d.SaturationRate) * (1 - clampShare)
	d.Degraded = d.Confidence < 1 || clamped > 0
	return d
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ContentionVerdict is the burst-detection outcome for one monitored
// combinational unit.
type ContentionVerdict struct {
	Kind     trace.Kind
	Analysis BurstAnalysis
	// Degradation qualifies the verdict's sensor-path health.
	Degradation Degradation
}

// OscillationVerdict is the oscillation-detection outcome for the
// monitored cache.
type OscillationVerdict struct {
	// Windows holds every non-empty observation window's analysis.
	Windows []OscillationAnalysis
	// Best is the strongest window (see BestWindow).
	Best OscillationAnalysis
	// DetectedWindows counts windows with sustained periodicity.
	DetectedWindows int
	// Detected reports the overall oscillation verdict.
	Detected bool
	// Degradation qualifies the verdict's sensor-path health.
	Degradation Degradation
}

// Report is a full CC-Hunter analysis over one run.
type Report struct {
	// Contention holds one verdict per monitored combinational unit.
	Contention []ContentionVerdict
	// Oscillation holds the cache verdict; nil when conflict
	// monitoring was off.
	Oscillation *OscillationVerdict
	// Detected reports whether any monitored resource shows a covert
	// timing channel.
	Detected bool
	// Confidence is the weakest per-detector confidence in the report
	// (1 when every sensor path was pristine). A verdict — either way —
	// at low confidence calls for re-observation, not silence.
	Confidence float64
	// Metrics is a snapshot of the pipeline's observability registry,
	// present only when a run was instrumented (DetectorConfig.Metrics
	// or Scenario.Metrics). It never influences any verdict field and
	// is omitted from the rendered summary.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Streaming carries the streaming daemon's extra evidence (onset
	// times, retention bounds). The batch detector leaves it nil.
	Streaming *StreamingInfo `json:"streaming,omitempty"`
	// Failure is the non-empty reason when a supervised detector job
	// died (panic, watchdog) and this report is a degraded placeholder
	// rather than an analysis (see DegradedReport).
	Failure string `json:"failure,omitempty"`
}

// Failed reports whether this is a degraded placeholder from a crashed
// or timed-out detector job rather than a rendered analysis.
func (r Report) Failed() bool { return r.Failure != "" }

// String renders a terse human-readable summary.
func (r Report) String() string {
	var sb strings.Builder
	if r.Failure != "" {
		fmt.Fprintf(&sb, "verdict: detector failed (%s); no detection claim, re-observe", r.Failure)
		return sb.String()
	}
	for _, c := range r.Contention {
		fmt.Fprintf(&sb, "%s: detected=%v LR=%.3f threshold=%d burstQuanta=%d\n",
			c.Kind, c.Analysis.Detected, c.Analysis.LikelihoodRatio,
			c.Analysis.ThresholdDensity, c.Analysis.BurstQuanta)
	}
	if r.Oscillation != nil {
		fmt.Fprintf(&sb, "cache: detected=%v peak=%.3f at lag %d (%d/%d windows)\n",
			r.Oscillation.Detected, r.Oscillation.Best.PeakValue,
			r.Oscillation.Best.FundamentalLag, r.Oscillation.DetectedWindows,
			len(r.Oscillation.Windows))
	}
	fmt.Fprintf(&sb, "verdict: covert timing channel detected=%v", r.Detected)
	if r.Confidence < 1 {
		fmt.Fprintf(&sb, " (confidence %.3f: degraded sensor path)", r.Confidence)
	}
	return sb.String()
}

// Workspace is the scratch every analysis runs in: the
// autocorrelation workspace of the oscillation lag scans and the
// k-means workspace of the burst recurrence clustering. A detector
// borrows one for its lifetime; a caller analyzing outside a detector
// borrows one around its analyses. Not safe for concurrent use.
type Workspace struct {
	acf stats.Workspace
	km  stats.KmeansWorkspace
}

// workspaces recycles Workspaces across detectors. The FFT scratch
// and centered-copy buffers dominate a detector's footprint; on the
// experiment runner, where every scenario job builds a fresh Detector,
// reuse means the steady state allocates no analysis scratch at all. A recycled workspace is handed over with its tallies
// reset and its buffers re-grown on first use, and the k-means scratch
// is re-zeroed by every method that hands it out, so results are
// identical to a fresh one.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// BorrowWorkspace hands out a pooled workspace whose autocorrelation
// path tallies start at zero. Give it back with Release.
func BorrowWorkspace() *Workspace {
	w := workspaces.Get().(*Workspace)
	w.acf.ResetCounts()
	return w
}

// Release returns the workspace to the pool. The caller must not use
// it afterwards.
func (w *Workspace) Release() { workspaces.Put(w) }

// SensorHealth is what the verdict assembler reads of the CC-Auditor:
// the integrity counters of each monitored unit and of the conflict
// capture path. *auditor.Auditor implements it.
type SensorHealth interface {
	Integrity(kind trace.Kind) auditor.SlotIntegrity
	ConflictIntegrity() auditor.ConflictIntegrity
}

// Assemble renders one Report from a detection pass's analyses; batch
// Analyze and the streaming daemon's Interim and Finalize all end
// here, so every verdict is folded the same way. contention holds one
// verdict per monitored kind with Kind and Analysis set; osc, nil when
// conflict monitoring is off, holds the windows, the best window and
// the detected-window count. Assemble qualifies each verdict with a
// Degradation from the sensor's integrity counters and upstreamLoss,
// decides the oscillation verdict, and folds Detected (any verdict)
// and Confidence (the weakest). With a non-nil reg it publishes ws's
// autocorrelation path tallies and attaches a snapshot of reg.
func Assemble(sensor SensorHealth, upstreamLoss float64, contention []ContentionVerdict, osc *OscillationVerdict, ws *Workspace, reg *obs.Registry) Report {
	rep := Report{Contention: contention, Oscillation: osc, Confidence: 1}
	fold := func(detected bool, deg Degradation) {
		rep.Detected = rep.Detected || detected
		if deg.Confidence < rep.Confidence {
			rep.Confidence = deg.Confidence
		}
	}
	for i := range contention {
		c := &contention[i]
		integ := sensor.Integrity(c.Kind)
		c.Degradation = degradation(upstreamLoss, integ.SaturationRate(), 0, integ.Windows)
		fold(c.Analysis.Detected, c.Degradation)
	}
	if osc != nil {
		osc.Detected = osc.DetectedWindows >= 1
		ci := sensor.ConflictIntegrity()
		osc.Degradation = degradation(upstreamLoss, 0, ci.ClampedTimestamps, ci.Recorded)
		fold(osc.Detected, osc.Degradation)
	}
	if reg != nil {
		// The lag scans ran through ws; publish which side of the FFT
		// crossover they landed on.
		fft, naive := ws.acf.PathCounts()
		reg.Gauge("stats.autocorr.fft").Set(int64(fft))
		reg.Gauge("stats.autocorr.naive").Set(int64(naive))
		rep.Metrics = reg.Snapshot()
	}
	return rep
}

// Detector is the CC-Hunter software daemon's analysis half: it reads
// the CC-Auditor's recorded buffers and renders verdicts.
type Detector struct {
	aud *auditor.Auditor
	cfg DetectorConfig
	ws  *Workspace
}

// NewDetector wraps an auditor and borrows a pooled workspace for
// every analysis the detector runs. The auditor keeps collecting; call
// Analyze whenever a verdict is needed, and Release when the detector
// is done.
func NewDetector(aud *auditor.Auditor, cfg DetectorConfig) *Detector {
	if aud == nil {
		panic("core: detector needs an auditor")
	}
	if cfg.QuantumCycles == 0 {
		panic("core: detector needs the quantum length")
	}
	return &Detector{aud: aud, cfg: cfg, ws: BorrowWorkspace()}
}

// Release returns the detector's workspace to the pool. The detector
// must not be used after Release.
func (d *Detector) Release() {
	d.ws.Release()
	d.ws = nil
}

// Analyze flushes the auditor up to endCycle and runs both detection
// algorithms over everything recorded so far.
func (d *Detector) Analyze(endCycle uint64) Report {
	return d.AnalyzeContext(context.Background(), endCycle)
}

// AnalyzeContext is Analyze under a context: the observation-window
// loop checks ctx between windows and, once ctx is done, abandons the
// analysis and returns a DegradedReport.
func (d *Detector) AnalyzeContext(ctx context.Context, endCycle uint64) Report {
	reg := d.cfg.Metrics
	span := reg.Timer("detect.analyze_ns").Start()
	d.aud.Flush(endCycle)
	var contention []ContentionVerdict
	for _, kind := range BurstKinds {
		recs := d.aud.Histograms(kind)
		if d.aud.DeltaT(kind) == 0 {
			continue // not monitored
		}
		burstSpan := reg.Timer("detect.burst_ns").Start()
		a := AnalyzeBursts(recs, d.cfg.WindowQuanta, d.ws)
		burstSpan.End()
		contention = append(contention, ContentionVerdict{Kind: kind, Analysis: a})
	}
	var osc *OscillationVerdict
	if train := d.aud.ConflictTrain(); train != nil {
		osc = &OscillationVerdict{}
		oscSpan := reg.Timer("detect.oscillation_ns").Start()
		err := AnalyzeOscillationWindows(ctx, train, 0, endCycle, d.cfg.ObservationWindow(), DefaultOscillationConfig(), d.ws,
			func(_ uint64, a OscillationAnalysis) { osc.Windows = append(osc.Windows, a) })
		oscSpan.End()
		if err != nil {
			span.End()
			return DegradedReport("analysis cancelled: " + err.Error())
		}
		reg.Counter("detect.windows").Add(uint64(len(osc.Windows)))
		osc.Best, _ = BestWindow(osc.Windows)
		for _, w := range osc.Windows {
			if w.Detected {
				osc.DetectedWindows++
			}
		}
	}
	span.End()
	return Assemble(d.aud, d.cfg.UpstreamLossRate, contention, osc, d.ws, reg)
}
