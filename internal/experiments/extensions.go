package experiments

import (
	"fmt"
	"strings"

	"cchunter"
	"cchunter/internal/channels"
	"cchunter/internal/runner"
)

// MitigationRow is one (channel, defense) cell of the mitigation
// study.
type MitigationRow struct {
	Channel    cchunter.Channel
	Mitigation string // "" = unprotected baseline
	BitErrors  int
	Decoded    int
	Detected   bool
}

// ErrorRate returns the channel's bit error rate for the run.
func (r MitigationRow) ErrorRate() float64 {
	if r.Decoded == 0 {
		return 1
	}
	return float64(r.BitErrors) / float64(r.Decoded)
}

// MitigationResult is the post-detection damage-control study.
type MitigationResult struct {
	Rows []MitigationRow
}

// ExtMitigation runs each covert channel unprotected and under its
// matching defense (internal/mitigate) — the "damage control
// strategies like limiting resource sharing or bandwidth reduction"
// the paper positions as CC-Hunter's complement (§I). The defenses
// should push the channels' bit error rates toward coin-flipping.
func ExtMitigation(o Options) MitigationResult {
	o = o.norm()
	var out MitigationResult
	cases := []struct {
		ch  cchunter.Channel
		mit string
	}{
		{cchunter.ChannelMemoryBus, ""},
		{cchunter.ChannelMemoryBus, "buslimit"},
		{cchunter.ChannelIntegerDivider, ""},
		{cchunter.ChannelIntegerDivider, "tdm"},
		{cchunter.ChannelSharedCache, ""},
		{cchunter.ChannelSharedCache, "partition"},
	}
	var jobs []runner.Job
	for _, c := range cases {
		msg := cchunter.RandomMessage(min(o.MessageBits, 32), o.Seed)
		sc := cchunter.Scenario{
			Channel:    c.ch,
			Message:    msg,
			Mitigation: c.mit,
			Seed:       o.Seed,
		}
		if channelSpec(c.ch).Oscillatory() {
			sc.BandwidthBPS = o.cacheBPS(100)
			sc.QuantumCycles = o.cacheQuantum()
			sc.CacheSets = 256
		} else {
			sc.BandwidthBPS = o.rowBPS(1000)
			sc.QuantumCycles = o.rowQuantum(1000)
			sc.DurationQuanta = 2
		}
		mit := c.mit
		if mit == "" {
			mit = "none"
		}
		jobs = append(jobs, o.scenarioJob(fmt.Sprintf("mitigate/%s/%s", c.ch, mit), sc,
			func(res *cchunter.Result) interface{} {
				return MitigationRow{
					Channel:    c.ch,
					Mitigation: c.mit,
					BitErrors:  res.BitErrors,
					Decoded:    len(res.Decoded),
					Detected:   res.Report.Detected,
				}
			}))
	}
	for _, r := range o.runJobs(jobs) {
		out.Rows = append(out.Rows, r.Value.(MitigationRow))
	}
	return out
}

// Summary renders the mitigation study.
func (r MitigationResult) Summary() string {
	var sb strings.Builder
	sb.WriteString("Mitigation study (extension; §I's damage-control complement):\n")
	for _, row := range r.Rows {
		mit := row.Mitigation
		if mit == "" {
			mit = "none"
		}
		fmt.Fprintf(&sb, "  %-8s defense=%-9s error rate %5.1f%% (%d/%d bits), detected=%v\n",
			row.Channel, mit, row.ErrorRate()*100, row.BitErrors, row.Decoded, row.Detected)
	}
	sb.WriteString("  (defenses push reliability toward coin-flipping; an unreliable channel is a dead channel)")
	return sb.String()
}

// EvasionRow is one camouflage-intensity point of the evasion study.
type EvasionRow struct {
	// Noise is the trojan's camouflage probability per '0' slot.
	Noise float64
	// LikelihoodRatio is the burst detector's statistic.
	LikelihoodRatio float64
	// Detected is the verdict.
	Detected bool
	// ErrorRate is the spy's bit error rate.
	ErrorRate float64
}

// FrontierRow is one (channel, evader setting) point of the
// detection-vs-evasion frontier: the same channel transmitting the
// same message with an adaptive sender at the given period jitter and
// amplitude duty cycle.
type FrontierRow struct {
	Channel cchunter.Channel
	// Jitter is the evader's period-jitter fraction (0 = strictly
	// periodic slots).
	Jitter float64
	// Duty is the evader's amplitude duty cycle (0 = full amplitude).
	Duty float64
	// Statistic is the detector's decision statistic for the channel's
	// own medium: the burst likelihood ratio for bus/divider/ring/tlb,
	// the autocorrelation peak for the cache.
	Statistic float64
	// Detected is the medium's own verdict (burst or oscillation).
	Detected bool
	// Confidence is the whole report's confidence.
	Confidence float64
	// ErrorRate is the spy's bit error rate — what evasion costs the
	// channel itself.
	ErrorRate float64
}

// EvasionResult is the §III evasion study plus the adaptive-evader
// frontier.
type EvasionResult struct {
	// Rows is the legacy camouflage-noise sweep on the bus channel.
	Rows []EvasionRow
	// Frontier is the detection-vs-evasion frontier: every channel ×
	// every evader setting of frontierSettings, baseline first.
	Frontier []FrontierRow
}

// frontierSettings is the evader grid swept per channel: the full-
// amplitude baseline, four amplitude duty cycles down to deep
// starvation, and two period jitters. Calibrated so each channel keeps
// at least one setting where detection survives and reaches at least
// one where it degrades (cache folds at 1/8 amplitude; bus, ring, and
// tlb around 1/16; the divider — whose spy keeps hammering the shared
// unit regardless of the trojan's pace — only once the trojan is
// starved to ~1/500 of its natural rate).
var frontierSettings = []struct{ Jitter, Duty float64 }{
	{0, 0},     // baseline: strictly periodic, full amplitude
	{0, 0.125}, // amplitude thinned to 1/8
	{0, 0.06},  // amplitude thinned to ~1/16
	{0, 0.03},  // amplitude thinned to ~1/32
	{0, 0.002}, // deep starvation: ~1/500 amplitude
	{0.2, 0},   // ±20% slot phase jitter
	{0.5, 0},   // ±50% slot phase jitter
}

// frontierScenario builds the channel's pinned frontier configuration:
// burst channels run the Figure 10 style row setup; the cache runs the
// golden-corpus oscillation configuration (256 sets, ≤10 bits).
func (o Options) frontierScenario(spec channels.Spec) cchunter.Scenario {
	sc := cchunter.Scenario{Channel: cchunter.Channel(spec.Name), Seed: o.Seed}
	if spec.Oscillatory() {
		sc.BandwidthBPS = o.cacheBPS(100)
		sc.QuantumCycles = o.cacheQuantum()
		sc.CacheSets = 256
		sc.Message = cchunter.RandomMessage(min(o.MessageBits, 10), o.Seed)
	} else {
		sc.BandwidthBPS = o.rowBPS(1000)
		sc.QuantumCycles = o.rowQuantum(1000)
		sc.DurationQuanta = 2
		sc.Message = cchunter.RandomMessage(min(o.MessageBits, 16), o.Seed)
	}
	return sc
}

// frontierStat reads the channel's own decision statistic out of a
// report: the burst likelihood ratio of the channel's event kind, or
// the cache's autocorrelation peak.
func frontierStat(spec channels.Spec, res *cchunter.Result) (stat float64, detected bool) {
	if spec.Oscillatory() {
		if osc := res.Report.Oscillation; osc != nil {
			return osc.Best.PeakValue, osc.Detected
		}
		return 0, false
	}
	for _, v := range res.Report.Contention {
		if v.Kind == spec.Indicator {
			return v.Analysis.LikelihoodRatio, v.Analysis.Detected
		}
	}
	return 0, false
}

// ExtEvasion runs the two evasion studies as one figure. The legacy
// sweep inflates the bus trojan's camouflage noise: the §III argument
// that "it is impossible for a covert timing channel to just randomly
// inflate conflict events ... simply to evade detection" — camouflage
// bursts are indistinguishable from signal bursts to the spy too, so
// reliability collapses while the burst statistics stay channel-like.
//
// The frontier sweep then probes the argument's boundary with
// *adaptive* senders (period jitter, amplitude duty cycling) on every
// channel: settings exist where the detection statistic degrades while
// the channel — whose two ends share the evader schedule — still
// decodes, mapping where recurrence detection ends and residual
// channel capacity begins. All rows run as scenario jobs on the worker
// pool, so the figure is byte-identical at every -j.
func ExtEvasion(o Options) EvasionResult {
	o = o.norm()
	noises := []float64{0, 0.25, 0.5, 1.0}
	var jobs []runner.Job
	for _, noise := range noises {
		msg := cchunter.RandomMessage(min(o.MessageBits, 32), o.Seed)
		jobs = append(jobs, o.scenarioJob(fmt.Sprintf("evade/noise%.0f%%", noise*100),
			cchunter.Scenario{
				Channel:        cchunter.ChannelMemoryBus,
				BandwidthBPS:   o.rowBPS(1000),
				Message:        msg,
				QuantumCycles:  o.rowQuantum(1000),
				DurationQuanta: 2,
				EvasionNoise:   noise,
				Seed:           o.Seed,
			}, nil))
	}
	// The frontier sweeps every channel of the table.
	for _, spec := range channels.Table {
		for _, set := range frontierSettings {
			sc := o.frontierScenario(spec)
			sc.EvaderJitter = set.Jitter
			sc.EvaderDuty = set.Duty
			jobs = append(jobs, o.scenarioJob(
				fmt.Sprintf("evade/%s/j%g-d%g", spec.Name, set.Jitter, set.Duty), sc, nil))
		}
	}
	results := o.runJobs(jobs)

	errRate := func(res *cchunter.Result) float64 {
		if n := len(res.Decoded); n > 0 {
			return float64(res.BitErrors) / float64(n)
		}
		return 0
	}
	var out EvasionResult
	for i, noise := range noises {
		res := results[i].Value.(*cchunter.Result)
		row := EvasionRow{Noise: noise, ErrorRate: errRate(res)}
		for _, v := range res.Report.Contention {
			if v.Kind == cchunter.EventBusLock {
				row.LikelihoodRatio = v.Analysis.LikelihoodRatio
				row.Detected = v.Analysis.Detected
			}
		}
		out.Rows = append(out.Rows, row)
	}
	i := len(noises)
	for _, spec := range channels.Table {
		for _, set := range frontierSettings {
			res := results[i].Value.(*cchunter.Result)
			i++
			stat, detected := frontierStat(spec, res)
			out.Frontier = append(out.Frontier, FrontierRow{
				Channel:    cchunter.Channel(spec.Name),
				Jitter:     set.Jitter,
				Duty:       set.Duty,
				Statistic:  stat,
				Detected:   detected,
				Confidence: res.Report.Confidence,
				ErrorRate:  errRate(res),
			})
		}
	}
	return out
}

// Summary renders the evasion study.
func (r EvasionResult) Summary() string {
	var sb strings.Builder
	sb.WriteString("Evasion study (extension; the paper's §III argument):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  camouflage %.0f%%: LR=%.3f detected=%v, spy bit error rate %.1f%%\n",
			row.Noise*100, row.LikelihoodRatio, row.Detected, row.ErrorRate*100)
	}
	sb.WriteString("  (inflating random conflicts destroys the spy's decoding before it hides the bursts)\n")
	sb.WriteString("Detection-vs-evasion frontier (adaptive senders; duty 0 = full amplitude):\n")
	for _, row := range r.Frontier {
		fmt.Fprintf(&sb, "  %-8s jitter=%.2f duty=%.3f: stat=%.3f detected=%v confidence=%.2f, bit error rate %.1f%%\n",
			row.Channel, row.Jitter, row.Duty, row.Statistic, row.Detected,
			row.Confidence, row.ErrorRate*100)
	}
	sb.WriteString("  (amplitude starvation and period jitter degrade recurrence detection before reliability;\n   each channel crosses the frontier at some setting — the cost CC-Hunter imposes is bandwidth)")
	return sb.String()
}
