package experiments

import (
	"fmt"

	"cchunter"
	"cchunter/internal/runner"
)

// RobustnessRow is one (channel, fault-rate) cell of the sensor fault
// sweep.
type RobustnessRow struct {
	// Channel identifies the covert channel (ChannelNone for the
	// benign false-alarm rows).
	Channel cchunter.Channel
	// DropRate is the injected uniform event-drop probability.
	DropRate float64
	// LikelihoodRatio is the burst detector's statistic (for the benign
	// rows, the worse of the bus and divider ratios).
	LikelihoodRatio float64
	// PeakValue is the cache detector's strongest autocorrelation peak.
	PeakValue float64
	// Detected is the overall verdict for the run.
	Detected bool
	// Confidence is the report's weakest per-detector confidence.
	Confidence float64
	// MeasuredLoss is the loss rate the injector actually inflicted.
	MeasuredLoss float64
	// BitErrors reports channel reliability under the faulted sensor
	// (the channel itself is unaffected; only the monitor degrades).
	BitErrors int
}

// RobustnessResult is the sensor fault sweep: detection strength and
// false-alarm behavior as the event path between the hardware units
// and the auditor drops a growing fraction of indicator events.
type RobustnessResult struct {
	// Rows holds the covert-channel runs, grouped by channel then rate.
	Rows []RobustnessRow
	// BenignRows holds the no-channel runs at the same fault rates.
	BenignRows []RobustnessRow
	// BaselineIdentical reports whether a run with the injector wired
	// in but configured to pass everything through produced a report
	// and decoded bitstream identical to a run with no injector at all
	// — the transparency guarantee the fault model promises.
	BaselineIdentical bool
}

// robustnessDropRates are the swept uniform drop probabilities.
var robustnessDropRates = []float64{0, 0.05, 0.10, 0.20}

// Robustness sweeps uniform event drop across all three covert
// channels and a benign pair. The paper's detectors key on densities
// and periodicity rather than exact counts, so likelihood ratios and
// autocorrelation peaks should survive moderate sensor loss — while
// every verdict carries a confidence reflecting what the sensor path
// actually delivered.
func Robustness(o Options) RobustnessResult {
	o = o.norm()

	msg := cchunter.RandomMessage(min(o.MessageBits, 32), o.Seed)
	burstScenario := func(ch cchunter.Channel, rate float64) cchunter.Scenario {
		return cchunter.Scenario{
			Channel:       ch,
			BandwidthBPS:  o.rowBPS(1000),
			Message:       msg,
			QuantumCycles: o.rowQuantum(1000),
			Seed:          o.Seed,
			Faults:        dropFaults(rate, o.Seed),
			Metrics:       o.Metrics,
		}
	}

	// Transparency baseline: a pass-through injector (saturation window
	// wide enough to never engage, no probabilistic faults) must leave
	// the run bit-identical to one with no injector wired at all.
	jobs := []runner.Job{{
		Name: "robust/baseline",
		Run: func(uint64) (interface{}, error) {
			plain, err := burstScenario(cchunter.ChannelMemoryBus, 0).Run()
			if err != nil {
				return nil, err
			}
			wired := burstScenario(cchunter.ChannelMemoryBus, 0)
			wired.Faults = cchunter.FaultConfig{SaturateWindow: 1, SaturateMax: 1 << 30, Seed: o.Seed}
			through, err := wired.Run()
			if err != nil {
				return nil, err
			}
			return plain.Report.String() == through.Report.String() &&
				equalBits(plain.Decoded, through.Decoded), nil
		},
	}}

	for _, ch := range []cchunter.Channel{cchunter.ChannelMemoryBus, cchunter.ChannelIntegerDivider} {
		for _, rate := range robustnessDropRates {
			jobs = append(jobs, o.scenarioJob(fmt.Sprintf("robust/%s/drop%.2f", ch, rate), burstScenario(ch, rate),
				func(res *cchunter.Result) interface{} {
					s := summarize(ch, 1000, res)
					return robustnessRow(ch, rate, res, s.LikelihoodRatio, 0)
				}))
		}
	}
	for _, rate := range robustnessDropRates {
		sc := cchunter.Scenario{
			Channel:       cchunter.ChannelSharedCache,
			BandwidthBPS:  o.cacheBPS(100),
			Message:       msg,
			CacheSets:     512,
			QuantumCycles: o.cacheQuantum(),
			Seed:          o.Seed,
			Faults:        dropFaults(rate, o.Seed),
		}
		jobs = append(jobs, o.scenarioJob(fmt.Sprintf("robust/cache/drop%.2f", rate), sc,
			func(res *cchunter.Result) interface{} {
				s := summarize(cchunter.ChannelSharedCache, 100, res)
				return robustnessRow(cchunter.ChannelSharedCache, rate, res, 0, s.PeakValue)
			}))
	}

	// Benign rows: the same degraded sensor must not start alarming on
	// innocent sharing — loss thins trains, it does not invent bursts.
	for _, rate := range robustnessDropRates {
		sc := cchunter.Scenario{
			Channel:        cchunter.ChannelNone,
			Workloads:      []string{"gobmk", "sjeng"},
			DurationQuanta: 32,
			QuantumCycles:  o.quantum(),
			Seed:           o.Seed,
			Faults:         dropFaults(rate, o.Seed),
		}
		jobs = append(jobs, o.scenarioJob(fmt.Sprintf("robust/benign/drop%.2f", rate), sc,
			func(res *cchunter.Result) interface{} {
				worstLR := 0.0
				for _, v := range res.Report.Contention {
					if v.Analysis.LikelihoodRatio > worstLR {
						worstLR = v.Analysis.LikelihoodRatio
					}
				}
				peak := 0.0
				if osc := res.Report.Oscillation; osc != nil {
					peak = osc.Best.PeakValue
				}
				return robustnessRow(cchunter.ChannelNone, rate, res, worstLR, peak)
			}))
	}

	var out RobustnessResult
	for _, r := range o.runJobs(jobs) {
		switch v := r.Value.(type) {
		case bool:
			out.BaselineIdentical = v
		case RobustnessRow:
			if v.Channel == cchunter.ChannelNone {
				out.BenignRows = append(out.BenignRows, v)
			} else {
				out.Rows = append(out.Rows, v)
			}
		}
	}
	return out
}

// dropFaults builds a uniform-drop fault config, zero when rate is 0.
func dropFaults(rate float64, seed uint64) cchunter.FaultConfig {
	if rate == 0 {
		return cchunter.FaultConfig{}
	}
	return cchunter.FaultConfig{DropProb: rate, Seed: seed}
}

func robustnessRow(ch cchunter.Channel, rate float64, res *cchunter.Result, lr, peak float64) RobustnessRow {
	row := RobustnessRow{
		Channel:         ch,
		DropRate:        rate,
		LikelihoodRatio: lr,
		PeakValue:       peak,
		Detected:        res.Report.Detected,
		Confidence:      res.Report.Confidence,
		BitErrors:       res.BitErrors,
	}
	if fs := res.FaultStats; fs != nil {
		row.MeasuredLoss = fs.LossRate()
	}
	return row
}

func equalBits(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
