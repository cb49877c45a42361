package experiments

import (
	"fmt"
	"io"

	"cchunter"
	"cchunter/internal/trace"
)

// Series is one plottable series; cmd/ccrepro writes it as Name.csv.
type Series struct {
	Name string
	X, Y string
	Data []float64
}

// Train is one event train; cmd/ccrepro writes it as Name.csv.
type Train struct {
	Name  string
	Train *trace.Train
}

// Output is everything one figure run produces: the text summary
// ccrepro prints, the series and trains it writes as CSVs, and the
// scalar detection metrics ccrepro -bench-out records.
type Output struct {
	Summary string
	Series  []Series
	Trains  []Train
	Metrics map[string]float64
}

// WriteCSVs writes every series, then every train, of out to the
// writer create returns for its file name (Name + ".csv").
func (out Output) WriteCSVs(create func(file string) (io.WriteCloser, error)) error {
	write := func(name string, fill func(io.Writer) error) error {
		w, err := create(name + ".csv")
		if err != nil {
			return err
		}
		if err := fill(w); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	}
	for _, s := range out.Series {
		if err := write(s.Name, func(w io.Writer) error { return trace.WriteSeriesCSV(w, s.X, s.Y, s.Data) }); err != nil {
			return err
		}
	}
	for _, t := range out.Trains {
		if err := write(t.Name, t.Train.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// Figure is one row of the figure table: the id ccrepro -fig takes
// and the run that regenerates the figure.
type Figure struct {
	ID  string
	Run func(Options) Output
}

// LookupFigure returns the row of Figures with the given id.
func LookupFigure(id string) (Figure, bool) {
	for _, f := range Figures {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Figures declares every figure and table of the reproduction, in the
// order ccrepro -fig all runs and prints them. Each id is one of the
// paper's Figures 2–14 (there is no Figure 9), "t1" for Table I, or one
// of the extension studies: "m" mitigation, "e" evasion plus the
// detection-vs-evasion frontier, "r" sensor fault robustness.
var Figures = []Figure{
	{"2", func(o Options) Output {
		r := Figure2(o)
		return Output{
			Summary: r.Summary(),
			Series:  []Series{{"fig2_latency", "bit", "cycles", r.Latency}},
			Metrics: map[string]float64{"bit_errors": float64(r.BitErrors)},
		}
	}},
	{"3", func(o Options) Output {
		r := Figure3(o)
		return Output{
			Summary: r.Summary(),
			Series:  []Series{{"fig3_latency", "bit", "cycles", r.Latency}},
			Metrics: map[string]float64{"bit_errors": float64(r.BitErrors)},
		}
	}},
	{"4", func(o Options) Output {
		r := Figure4(o)
		return Output{
			Summary: r.Summary(),
			Trains: []Train{
				{"fig4a_buslocks", r.BusLocks},
				{"fig4b_divcontention", r.DivContention},
			},
			Metrics: map[string]float64{
				"bus_events": float64(r.BusLocks.Len()),
				"div_events": float64(r.DivContention.Len()),
			},
		}
	}},
	{"5", func(o Options) Output {
		r := Figure5(o)
		return Output{
			Summary: r.Summary(),
			Metrics: map[string]float64{"windows": float64(len(r.Densities))},
		}
	}},
	{"6", func(o Options) Output {
		r := Figure6(o)
		return Output{
			Summary: r.Summary(),
			Series: []Series{
				{"fig6a_bus_hist", "density", "frequency", r.Bus.Floats()},
				{"fig6b_div_hist", "density", "frequency", r.Div.Floats()},
			},
			Metrics: map[string]float64{
				"bus_lr":        r.BusLR,
				"div_lr":        r.DivLR,
				"bus_threshold": float64(r.BusThreshold),
				"div_threshold": float64(r.DivThreshold),
			},
		}
	}},
	{"7", func(o Options) Output {
		r := Figure7(o)
		return Output{
			Summary: r.Summary(),
			Series:  []Series{{"fig7_ratio", "bit", "ratio", r.Ratio}},
			Metrics: map[string]float64{"bit_errors": float64(r.BitErrors)},
		}
	}},
	{"8", func(o Options) Output {
		r := Figure8(o)
		return Output{
			Summary: r.Summary(),
			Series:  []Series{{"fig8_acf", "lag", "r", r.Autocorrelogram}},
			Trains:  []Train{{"fig8a_conflicts", r.Train}},
			Metrics: map[string]float64{
				"peak_lag":   float64(r.PeakLag),
				"peak_value": r.PeakValue,
				"detected":   b2f(r.Detected),
			},
		}
	}},
	{"10", func(o Options) Output {
		r := Figure10(o)
		out := Output{Summary: r.Summary(), Metrics: map[string]float64{}}
		for _, row := range r.Rows {
			key := fmt.Sprintf("%s_%gbps", row.Channel, row.PaperBPS)
			if row.Hist != nil {
				out.Series = append(out.Series, Series{"fig10_" + key + "_hist", "density", "frequency", row.Hist.Floats()})
				out.Metrics[key+"_lr"] = row.LikelihoodRatio
			} else {
				out.Metrics[key+"_peak"] = row.PeakValue
			}
			if row.Autocorrelogram != nil {
				out.Series = append(out.Series, Series{"fig10_" + key + "_acf", "lag", "r", row.Autocorrelogram})
			}
			out.Metrics[key+"_detected"] = b2f(row.Detected)
		}
		return out
	}},
	{"11", func(o Options) Output {
		r := Figure11(o)
		out := Output{Summary: r.Summary(), Metrics: map[string]float64{}}
		for _, row := range r.Rows {
			key := fmt.Sprintf("window_%g", row.Fraction)
			out.Metrics[key+"_peak"] = row.PeakValue
			out.Metrics[key+"_detected"] = b2f(row.Detected)
		}
		return out
	}},
	{"12", func(o Options) Output {
		r := Figure12(o)
		return Output{
			Summary: r.Summary(),
			Series: []Series{
				{"fig12_bus_mean", "density", "mean", r.BusMean},
				{"fig12_bus_min", "density", "min", r.BusMin},
				{"fig12_bus_max", "density", "max", r.BusMax},
				{"fig12_div_mean", "density", "mean", r.DivMean},
				{"fig12_div_min", "density", "min", r.DivMin},
				{"fig12_div_max", "density", "max", r.DivMax},
			},
			Metrics: map[string]float64{
				"bus_lr_min":     r.BusLRMin,
				"div_lr_min":     r.DivLRMin,
				"cache_peak_min": r.CachePeakMin,
				"all_detected":   b2f(r.AllDetected),
			},
		}
	}},
	{"13", func(o Options) Output {
		r := Figure13(o)
		out := Output{Summary: r.Summary(), Metrics: map[string]float64{}}
		for _, row := range r.Rows {
			out.Series = append(out.Series, Series{fmt.Sprintf("fig13_acf_%dsets", row.Sets), "lag", "r", row.Autocorrelogram})
			key := fmt.Sprintf("sets_%d", row.Sets)
			out.Metrics[key+"_lag"] = float64(row.PeakLag)
			out.Metrics[key+"_peak"] = row.PeakValue
		}
		return out
	}},
	{"14", func(o Options) Output {
		r := Figure14(o)
		out := Output{
			Summary: r.Summary(),
			Metrics: map[string]float64{
				"false_alarms": float64(r.FalseAlarms),
				"pairs":        float64(len(r.Rows)),
			},
		}
		for _, row := range r.Rows {
			prefix := fmt.Sprintf("fig14_%s_%s", row.Pair[0], row.Pair[1])
			out.Series = append(out.Series,
				Series{prefix + "_bus", "density", "frequency", row.BusHist.Floats()},
				Series{prefix + "_div", "density", "frequency", row.DivHist.Floats()},
				Series{prefix + "_acf", "lag", "r", row.Autocorrelogram},
			)
		}
		return out
	}},
	{"t1", func(Options) Output {
		r := TableI()
		m := r.Model
		return Output{
			Summary: r.Summary(),
			Metrics: map[string]float64{
				"area_mm2": m.HistogramBuffers.AreaMM2 + m.Registers.AreaMM2 + m.ConflictMissDetector.AreaMM2,
				"power_mw": m.HistogramBuffers.PowerMW + m.Registers.PowerMW + m.ConflictMissDetector.PowerMW,
			},
		}
	}},
	{"m", func(o Options) Output {
		r := ExtMitigation(o)
		out := Output{Summary: r.Summary(), Metrics: map[string]float64{}}
		for _, row := range r.Rows {
			mit := row.Mitigation
			if mit == "" {
				mit = "none"
			}
			out.Metrics[fmt.Sprintf("%s_%s_errrate", row.Channel, mit)] = row.ErrorRate()
		}
		return out
	}},
	{"e", func(o Options) Output {
		r := ExtEvasion(o)
		out := Output{Summary: r.Summary(), Metrics: map[string]float64{}}
		noiseLR := make([]float64, len(r.Rows))
		noiseErr := make([]float64, len(r.Rows))
		for i, row := range r.Rows {
			noiseLR[i] = row.LikelihoodRatio
			noiseErr[i] = row.ErrorRate
			key := fmt.Sprintf("noise_%g", row.Noise)
			out.Metrics[key+"_lr"] = row.LikelihoodRatio
			out.Metrics[key+"_errrate"] = row.ErrorRate
		}
		out.Series = []Series{
			{"evade_noise_lr", "noise_index", "lr", noiseLR},
			{"evade_noise_errrate", "noise_index", "errrate", noiseErr},
		}
		var stat, errrate perChannel
		for _, row := range r.Frontier {
			stat.add(string(row.Channel), row.Statistic)
			errrate.add(string(row.Channel), row.ErrorRate)
			key := fmt.Sprintf("frontier_%s_j%g_d%g", row.Channel, row.Jitter, row.Duty)
			out.Metrics[key+"_stat"] = row.Statistic
			out.Metrics[key+"_detected"] = b2f(row.Detected)
			out.Metrics[key+"_errrate"] = row.ErrorRate
		}
		for i, name := range stat.names {
			out.Series = append(out.Series,
				Series{"evade_frontier_" + name + "_stat", "setting_index", "stat", stat.data[i]},
				Series{"evade_frontier_" + name + "_errrate", "setting_index", "errrate", errrate.data[i]},
			)
		}
		return out
	}},
	{"r", func(o Options) Output {
		r := Robustness(o)
		out := Output{
			Summary: r.Summary(),
			Metrics: map[string]float64{"baseline_identical": b2f(r.BaselineIdentical)},
		}
		for _, row := range r.Rows {
			key := fmt.Sprintf("%s_drop_%g", row.Channel, row.DropRate)
			out.Metrics[key+"_detected"] = b2f(row.Detected)
			out.Metrics[key+"_confidence"] = row.Confidence
		}
		var strength, confidence perChannel
		for _, row := range append(append([]RobustnessRow(nil), r.Rows...), r.BenignRows...) {
			name := string(row.Channel)
			if row.Channel == cchunter.ChannelNone || name == "" {
				name = "benign"
			}
			s := row.LikelihoodRatio
			if channelSpec(row.Channel).Oscillatory() {
				s = row.PeakValue
			}
			strength.add(name, s)
			confidence.add(name, row.Confidence)
		}
		for i, name := range strength.names {
			out.Series = append(out.Series,
				Series{"robust_" + name + "_strength", "rate_index", "strength", strength.data[i]},
				Series{"robust_" + name + "_confidence", "rate_index", "confidence", confidence.data[i]},
			)
		}
		return out
	}},
}

// perChannel groups a series' values by name, names in first-seen
// order.
type perChannel struct {
	names []string
	data  [][]float64
}

func (p *perChannel) add(name string, v float64) {
	for i, n := range p.names {
		if n == name {
			p.data[i] = append(p.data[i], v)
			return
		}
	}
	p.names = append(p.names, name)
	p.data = append(p.data, []float64{v})
}

// b2f encodes a verdict as a metric: 1 for true, 0 for false.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
