// Package stream is the streaming half of the CC-Hunter software
// daemon: a detector that drains the CC-Auditor's buffers as the run
// progresses, renders verdicts mid-run, and reports *when* a covert
// transmission started — not just that one happened.
//
// The batch detector (internal/core) reads everything the auditor
// recorded at the end of a run; its memory grows with trace length.
// The streaming detector holds a ring of the last WindowQuanta quantum
// histograms and the conflict events of the currently open observation
// window, so its event state is O(window) no matter how long the run
// is. The per-window oscillation analyses it gathers for the Report
// grow with the run unless Config.RetainWindows bounds them.
// It only gathers analyses: its windows go through core's one window
// loop and its verdicts through core.Assemble, the assembler the batch
// detector uses, so its final verdict is byte-identical to the batch
// path's.
package stream

import (
	"math"

	"cchunter/internal/core"
)

// CUSUMConfig tunes the change detector that turns a detection
// statistic's sample series into an onset time.
type CUSUMConfig struct {
	// Drift is the per-sample allowance k subtracted from each
	// deviation before accumulation: fluctuations smaller than Drift
	// (and baseline wander the EWMA tracks) never accumulate, which is
	// what separates a benign slow drift from a channel switching on.
	Drift float64
	// K sets the firing threshold to K·σ, where σ is the EWMA estimate
	// of the series' standard deviation — quiet series fire on small
	// excursions, noisy ones demand proportionally more evidence.
	K float64
	// MinThreshold floors the threshold so a perfectly constant
	// warmup (σ = 0) does not fire on roundoff.
	MinThreshold float64
	// Alpha is the EWMA smoothing factor for the baseline mean and
	// variance (0 < Alpha <= 1; smaller tracks slower).
	Alpha float64
	// Warmup is how many leading samples establish the baseline before
	// the detector is willing to fire.
	Warmup int
}

// DefaultCUSUMConfig returns a change detector calibrated for the
// detection statistics this package feeds it: likelihood ratios and
// autocorrelation peaks, both in [0, 1], near-constant while a channel
// is silent.
func DefaultCUSUMConfig() CUSUMConfig {
	return CUSUMConfig{
		Drift:        0.05,
		K:            6,
		MinThreshold: 0.2,
		Alpha:        0.05,
		Warmup:       8,
	}
}

// CUSUM is a one-sided cumulative-sum change detector over a scalar
// series: S ← max(0, S + (x − mean − Drift)), firing when S crosses
// the adaptive threshold. The onset estimate is the classic
// CUSUM one — the sample at which S last left zero before the firing
// crossing; everything since that sample contributed to the alarm.
type CUSUM struct {
	cfg CUSUMConfig

	s       float64
	n       int
	mean    float64
	varEWMA float64

	// Candidate onset: where the current positive excursion began.
	excIndex int
	excCycle uint64
	inExc    bool

	fired      bool
	onsetIndex int
	onsetCycle uint64
	firedCycle uint64
	firedStat  float64
	firedThr   float64
	lastThr    float64
}

// NewCUSUM builds a change detector. Zero-value fields of cfg fall
// back to the defaults, so CUSUMConfig{} is usable.
func NewCUSUM(cfg CUSUMConfig) *CUSUM {
	def := DefaultCUSUMConfig()
	if cfg.Drift <= 0 {
		cfg.Drift = def.Drift
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = def.Alpha
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = def.Warmup
	}
	if cfg.K <= 0 {
		cfg.K = def.K
	}
	if cfg.MinThreshold <= 0 {
		cfg.MinThreshold = def.MinThreshold
	}
	return &CUSUM{cfg: cfg}
}

// Add consumes one sample stamped with its simulated cycle (cycles
// must be non-decreasing) and reports whether the detector fired on
// this sample. Once fired, the alarm latches; further samples keep the
// statistic series going but cannot un-fire it.
func (c *CUSUM) Add(x float64, cycle uint64) bool {
	i := c.n
	c.n++
	if i < c.cfg.Warmup {
		// Baseline establishment: running average, no change scoring.
		c.mean += (x - c.mean) / float64(i+1)
		d := x - c.mean
		c.varEWMA += (float64(d*d) - c.varEWMA) / float64(i+1)
		return false
	}
	dev := x - c.mean - c.cfg.Drift
	prev := c.s
	c.s += dev
	if c.s < 0 {
		c.s = 0
	}
	if prev == 0 && c.s > 0 {
		c.excIndex, c.excCycle, c.inExc = i, cycle, true
	} else if c.s == 0 {
		c.inExc = false
	}
	thr := c.cfg.K * math.Sqrt(c.varEWMA)
	if thr < c.cfg.MinThreshold {
		thr = c.cfg.MinThreshold
	}
	c.lastThr = thr
	firedNow := false
	if !c.fired && c.s >= thr {
		c.fired, firedNow = true, true
		c.onsetIndex, c.onsetCycle = c.excIndex, c.excCycle
		if !c.inExc { // crossed in a single sample
			c.onsetIndex, c.onsetCycle = i, cycle
		}
		c.firedCycle, c.firedStat, c.firedThr = cycle, c.s, thr
	}
	// The baseline keeps tracking only while the detector is quiescent:
	// once an excursion is building, freezing the baseline stops the
	// change itself from being absorbed into "normal".
	if c.s == 0 {
		a := c.cfg.Alpha
		d := x - c.mean
		c.mean += float64(a * d)
		c.varEWMA = float64((1-a)*c.varEWMA) + float64(a*d*d)
	}
	return firedNow
}

// Fired reports whether the detector has latched an alarm.
func (c *CUSUM) Fired() bool { return c.fired }

// Report renders the onset verdict (Kind left zero for the caller to
// stamp).
func (c *CUSUM) Report() core.OnsetReport {
	r := core.OnsetReport{
		Detected:  c.fired,
		Samples:   c.n,
		Statistic: c.s,
		Threshold: c.lastThr,
	}
	if c.fired {
		r.OnsetIndex = c.onsetIndex
		r.OnsetCycle = c.onsetCycle
		r.FiredCycle = c.firedCycle
		r.Statistic = c.firedStat
		r.Threshold = c.firedThr
	}
	return r
}
