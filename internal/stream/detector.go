package stream

import (
	"context"

	"cchunter/internal/auditor"
	"cchunter/internal/core"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// Config tunes the streaming daemon around a batch-equivalent
// detector configuration.
type Config struct {
	// Detector carries the same knobs the batch path uses; the final
	// verdict is rendered from them byte-identically.
	Detector core.DetectorConfig
	// RetainWindows bounds how many per-window oscillation analyses the
	// final verdict's Windows slice carries (keeping the most recent).
	// 0 retains every analysis, which makes the whole Report — Windows
	// slice included — byte-identical to the batch path; a bound keeps
	// memory O(RetainWindows) on arbitrarily long runs while the
	// verdict fields (Detected, Best, DetectedWindows, Degradation)
	// stay identical either way.
	RetainWindows int
}

// kindState is the sliding burst-detection state for one monitored
// combinational unit: a ring of the last WindowQuanta quantum
// histograms — exactly the suffix AnalyzeBursts would slice from a
// full record list — plus an incrementally maintained merged histogram
// the sliding likelihood ratio is read from in O(bins) per quantum.
type kindState struct {
	kind    trace.Kind
	ring    []auditor.QuantumHistogram
	ringCap int // 0 = unbounded
	merged  *stats.Histogram
	cus     *CUSUM
	quanta  int
	lastLR  float64
}

// push slides rec into the ring and returns the histogram a full ring
// evicted (nil while the ring is filling). The evicted histogram is
// dead: nothing reads it again.
func (ks *kindState) push(rec auditor.QuantumHistogram, quantumLen uint64) (evicted *stats.Histogram) {
	ks.merged.Merge(rec.Hist)
	if ks.ringCap > 0 && len(ks.ring) == ks.ringCap {
		evicted = ks.ring[0].Hist
		ks.merged.Unmerge(evicted)
		copy(ks.ring, ks.ring[1:])
		ks.ring[len(ks.ring)-1] = rec
	} else {
		ks.ring = append(ks.ring, rec)
	}
	ks.quanta++
	ks.lastLR = core.LikelihoodRatio(ks.merged, core.ThresholdDensity(ks.merged))
	ks.cus.Add(ks.lastLR, rec.Quantum*quantumLen)
	return evicted
}

// Detector is the streaming CC-Hunter daemon. It wraps a programmed
// auditor, registers as the simulator's event listener in the
// auditor's place (forwarding everything), and drains the auditor's
// buffers as the run progresses:
//
//   - per OS quantum, the recorded density histograms move into a
//     sliding ring of the last DetectorConfig.WindowQuanta quanta and the
//     likelihood ratio over the ring's merged histogram is updated
//     incrementally;
//   - per observation window, the conflict train's closed window is
//     analyzed with the exact oscillation machinery and then trimmed,
//     so the train holds O(window) events;
//   - CUSUM change detectors over the likelihood-ratio and peak series
//     estimate each channel's onset cycle.
//
// Interim and Finalize hand their analyses to core.Assemble, the
// verdict assembler the batch detector uses, so on the same event
// sequence Finalize's verdict fields are byte-identical to
// core.Detector.Analyze's. Not safe for concurrent use; wrap it in an
// Ingest queue to decouple producers.
type Detector struct {
	aud    *auditor.Auditor
	dcfg   core.DetectorConfig
	retain int
	ws     *core.Workspace

	quantumLen  uint64
	lastQuantum uint64
	kinds       []*kindState
	scratch     []auditor.QuantumHistogram

	oscOn           bool
	window          uint64
	curWs           uint64
	analyses        []core.OscillationAnalysis
	windowsAnalyzed int
	best            core.OscillationAnalysis
	detectedWindows int
	peakRetained    int
	peakCusum       *CUSUM

	shed uint64
}

// New wraps an already-programmed auditor (Monitor/MonitorConflicts
// done) in a streaming daemon that borrows a pooled analysis workspace
// until Finalize. Register the returned Detector — not the auditor —
// as the simulator's listener.
func New(aud *auditor.Auditor, cfg Config) *Detector {
	if aud == nil {
		panic("stream: detector needs an auditor")
	}
	if cfg.Detector.QuantumCycles == 0 {
		panic("stream: detector needs the quantum length")
	}
	d := &Detector{
		aud:        aud,
		dcfg:       cfg.Detector,
		retain:     cfg.RetainWindows,
		ws:         core.BorrowWorkspace(),
		quantumLen: cfg.Detector.QuantumCycles,
	}
	for _, kind := range core.BurstKinds {
		if aud.DeltaT(kind) == 0 {
			continue
		}
		// A monitored kind always has a merged histogram; emptied, it
		// is the sliding window's starting state at the auditor's depth.
		merged := aud.MergedHistogram(kind)
		merged.Reset()
		d.kinds = append(d.kinds, &kindState{
			kind:    kind,
			ringCap: d.dcfg.WindowQuanta,
			merged:  merged,
			cus:     NewCUSUM(),
		})
	}
	if aud.ConflictTrain() != nil {
		d.oscOn = true
		d.window = d.dcfg.ObservationWindow()
		d.peakCusum = NewCUSUM()
	}
	return d
}

// OnEvents implements trace.Listener: the auditor sweeps the whole
// batch first, then the daemon drains once at the batch's last cycle —
// the same state batches of one reach, met with one drain instead of
// len(events).
func (d *Detector) OnEvents(events []trace.Event) {
	if len(events) == 0 {
		return
	}
	d.aud.OnEvents(events)
	d.advance(events[len(events)-1].Cycle)
}

// advance drains whatever the auditor has finished recording below
// cycle: quantum histograms on quantum rolls, closed observation
// windows on the conflict train.
func (d *Detector) advance(cycle uint64) {
	if q := cycle / d.quantumLen; q != d.lastQuantum {
		d.lastQuantum = q
		d.drainQuanta()
	}
	if d.oscOn && cycle >= d.curWs+d.window {
		d.aud.ForceDrainConflicts()
		d.closeWindows()
	}
}

// drainQuanta moves newly recorded quantum histograms into each kind's
// sliding ring and updates its likelihood-ratio series.
func (d *Detector) drainQuanta() {
	for _, ks := range d.kinds {
		d.scratch = d.aud.DrainHistograms(ks.kind, d.scratch[:0])
		for _, rec := range d.scratch {
			d.aud.RecycleHistogram(ks.push(rec, d.quantumLen))
		}
	}
	d.scratch = d.scratch[:0]
}

// closeWindows analyzes every observation window the train has moved
// past. A window [ws, ws+w) is closed only once an event at or beyond
// its end is *recorded* (post-dedup, post-clamp): recorded cycles are
// monotonic, so nothing can land in the window afterwards and its
// analysis equals the batch one. The train is then trimmed behind the
// last closed window, which is the O(window) memory bound.
func (d *Detector) closeWindows() {
	train := d.aud.ConflictTrain()
	n := train.Len()
	if n > d.peakRetained {
		d.peakRetained = n
	}
	if n == 0 {
		return
	}
	last := train.At(n - 1).Cycle
	if last < d.curWs+d.window {
		return
	}
	closed := last - (last-d.curWs)%d.window
	// A background context never stops the loop, so it returns nil.
	_ = core.AnalyzeOscillationWindows(context.Background(), train, d.curWs, closed, d.window, core.DefaultOscillationConfig(), d.ws, d.fold)
	d.curWs = closed
	d.aud.TrimConflicts(closed)
}

// fold adds one closed window's analysis, starting at cycle start, to
// the running oscillation verdict.
func (d *Detector) fold(start uint64, a core.OscillationAnalysis) {
	if d.windowsAnalyzed == 0 || core.BetterOscillation(a, d.best) {
		d.best = a
	}
	d.windowsAnalyzed++
	if d.retain > 0 && len(d.analyses) == d.retain {
		copy(d.analyses, d.analyses[1:])
		d.analyses[len(d.analyses)-1] = a
	} else {
		d.analyses = append(d.analyses, a)
	}
	if a.Detected {
		d.detectedWindows++
	}
	d.peakCusum.Add(a.PeakValue, start)
}

// SetUpstreamLoss updates the upstream (sensor-path) loss rate folded
// into every verdict's degradation diagnostics. The fault injector's
// counters are only final once the run ends, so the scenario sets this
// between the last event and Finalize.
func (d *Detector) SetUpstreamLoss(rate float64) { d.dcfg.UpstreamLossRate = rate }

// SetShed records how many upstream events were load-shed before they
// reached the daemon (an Ingest queue's count); the number folds into
// the verdict's Streaming evidence block. Call it before Finalize.
func (d *Detector) SetShed(n uint64) { d.shed = n }

// RetainedEvents reports how many conflict-train entries the daemon
// currently holds — the quantity the soak test pins to O(window).
func (d *Detector) RetainedEvents() int {
	if t := d.aud.ConflictTrain(); t != nil {
		return t.Len()
	}
	return 0
}

// Interim renders a mid-run verdict from everything drained so far:
// the sliding-ring burst analyses over completed quanta, the
// oscillation fold over closed windows, plus the still-open window's
// events up to cycle, analyzed exactly as a closed window would be. It
// does not flush the auditor, so it never perturbs the final verdict.
func (d *Detector) Interim(cycle uint64) core.Report {
	contention := d.contention()
	var osc *core.OscillationVerdict
	if d.oscOn {
		d.aud.ForceDrainConflicts()
		osc = &core.OscillationVerdict{Best: d.best, DetectedWindows: d.detectedWindows}
		if open := d.aud.ConflictTrain().Window(d.curWs, cycle+1); open.Len() > 0 {
			a := core.AnalyzeOscillation(open, core.DefaultOscillationConfig(), d.ws)
			if d.windowsAnalyzed == 0 || core.BetterOscillation(a, osc.Best) {
				osc.Best = a
			}
			if a.Detected {
				osc.DetectedWindows++
			}
		}
	}
	rep := core.Assemble(d.aud, d.dcfg.UpstreamLossRate, contention, osc, d.ws, nil)
	rep.Streaming = d.streamingInfo()
	return rep
}

// Finalize flushes the auditor at endCycle, closes every remaining
// observation window, renders the final verdict, and gives the
// detector's workspace back to its pool and the histograms it drained
// back to the auditor. The detector must not be used afterwards; the
// auditor stays readable until its owner releases it.
func (d *Detector) Finalize(endCycle uint64) core.Report {
	return d.FinalizeContext(context.Background(), endCycle)
}

// FinalizeContext is Finalize under a context: the observation-window
// loop checks ctx between windows and, once ctx is done, abandons the
// analysis and returns a DegradedReport.
func (d *Detector) FinalizeContext(ctx context.Context, endCycle uint64) core.Report {
	defer func() {
		d.ws.Release()
		d.ws = nil
		for _, ks := range d.kinds {
			for _, rec := range ks.ring {
				d.aud.RecycleHistogram(rec.Hist)
			}
			d.aud.RecycleHistogram(ks.merged)
			ks.ring, ks.merged = nil, nil
		}
	}()
	d.aud.Flush(endCycle)
	d.drainQuanta()
	var osc *core.OscillationVerdict
	if d.oscOn {
		train := d.aud.ConflictTrain()
		if n := train.Len(); n > d.peakRetained {
			d.peakRetained = n
		}
		err := core.AnalyzeOscillationWindows(ctx, train, d.curWs, endCycle, d.window, core.DefaultOscillationConfig(), d.ws, d.fold)
		if err != nil {
			return core.DegradedReport("analysis cancelled: " + err.Error())
		}
		d.aud.TrimConflicts(endCycle)
		osc = &core.OscillationVerdict{Windows: d.analyses, Best: d.best, DetectedWindows: d.detectedWindows}
	}
	reg := d.dcfg.Metrics
	reg.Counter("stream.windows_closed").Add(uint64(d.windowsAnalyzed))
	rep := core.Assemble(d.aud, d.dcfg.UpstreamLossRate, d.contention(), osc, d.ws, reg)
	rep.Streaming = d.streamingInfo()
	return rep
}

// contention runs the burst analysis over every monitored kind's
// sliding ring.
func (d *Detector) contention() []core.ContentionVerdict {
	var out []core.ContentionVerdict
	for _, ks := range d.kinds {
		out = append(out, core.ContentionVerdict{Kind: ks.kind, Analysis: core.AnalyzeBursts(ks.ring, d.dcfg.WindowQuanta, d.ws)})
	}
	return out
}

// streamingInfo assembles the streaming-only evidence block.
func (d *Detector) streamingInfo() *core.StreamingInfo {
	info := &core.StreamingInfo{
		WindowsAnalyzed:    d.windowsAnalyzed,
		WindowsRetained:    len(d.analyses),
		PeakRetainedEvents: d.peakRetained,
		EventsShed:         d.shed,
	}
	for _, ks := range d.kinds {
		if ks.quanta > info.Quanta {
			info.Quanta = ks.quanta
		}
		r := ks.cus.Report()
		r.Kind = ks.kind
		info.Onsets = append(info.Onsets, r)
	}
	if d.peakCusum != nil {
		r := d.peakCusum.Report()
		r.Kind = trace.KindConflictMiss
		info.Onsets = append(info.Onsets, r)
	}
	return info
}
