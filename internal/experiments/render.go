package experiments

import (
	"fmt"
	"strings"

	"cchunter"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// Summary renders the Figure 2 outcome as text.
func (r Figure2Result) Summary() string {
	zero, one := meansByBit(r.Message, r.Latency)
	return fmt.Sprintf("Figure 2 (bus channel, %d bits): avg latency '0'=%.0f cycles, '1'=%.0f cycles, bit errors=%d",
		len(r.Message), zero, one, r.BitErrors)
}

// Summary renders the Figure 3 outcome as text.
func (r Figure3Result) Summary() string {
	zero, one := meansByBit(r.Message, r.Latency)
	return fmt.Sprintf("Figure 3 (divider channel, %d bits): avg loop latency '0'=%.0f cycles, '1'=%.0f cycles, bit errors=%d",
		len(r.Message), zero, one, r.BitErrors)
}

// Summary renders the Figure 4 trains as ASCII rasters.
func (r Figure4Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4a (memory bus lock train, %d events):\n[%s]\n",
		r.BusLocks.Len(), r.BusLocks.ASCIITrain(100))
	fmt.Fprintf(&sb, "Figure 4b (divider contention train, %d events):\n[%s]",
		r.DivContention.Len(), r.DivContention.ASCIITrain(100))
	return sb.String()
}

// Summary renders the Figure 5 construction.
func (r Figure5Result) Summary() string {
	return fmt.Sprintf("Figure 5 (illustration): %d Δt windows, histogram top bin %d (Poisson would predict %.2g there)\n%s",
		len(r.Densities), r.Histogram.NonZeroMax(), r.Poisson[r.Histogram.NonZeroMax()], r.Histogram)
}

// Summary renders the Figure 6 histograms and statistics.
func (r Figure6Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6a (bus lock density, Δt=100k): threshold=%d LR=%.3f burst-mean=%.1f (paper: burst bin ≈20, LR≥0.9)\n",
		r.BusThreshold, r.BusLR, r.BusBurstMean)
	sb.WriteString(histTail(r.Bus, 30))
	fmt.Fprintf(&sb, "Figure 6b (divider contention density, Δt=500): threshold=%d LR=%.3f burst-mean=%.1f (paper: bins 84–105)\n",
		r.DivThreshold, r.DivLR, r.DivBurstMean)
	sb.WriteString(histTail(r.Div, 128))
	return sb.String()
}

// Summary renders the Figure 7 outcome.
func (r Figure7Result) Summary() string {
	zero, one := meansByBit(r.Message, r.Ratio)
	return fmt.Sprintf("Figure 7 (cache channel, %d bits): G1/G0 ratio '0'=%.2f, '1'=%.2f, bit errors=%d (paper: <1 vs >1)",
		len(r.Message), zero, one, r.BitErrors)
}

// Summary renders the Figure 8 outcome.
func (r Figure8Result) Summary() string {
	return fmt.Sprintf("Figure 8 (cache channel, %d sets): %d conflict entries, ACF peak %.3f at lag %d, detected=%v (paper: 0.893 at lag 533)",
		r.SetsUsed, r.Train.Len(), r.PeakValue, r.PeakLag, r.Detected)
}

// Summary renders Table I.
func (r TableIResult) Summary() string {
	m := r.Model
	var sb strings.Builder
	sb.WriteString("Table I: CC-Auditor hardware estimates (paper values in parens)\n")
	fmt.Fprintf(&sb, "  %-22s area %.4f mm² (0.0028)  power %.1f mW (2.8)  latency %.2f ns (0.17)\n",
		"Histogram buffers", m.HistogramBuffers.AreaMM2, m.HistogramBuffers.PowerMW, m.HistogramBuffers.LatencyNS)
	fmt.Fprintf(&sb, "  %-22s area %.4f mm² (0.0011)  power %.1f mW (0.8)  latency %.2f ns (0.17)\n",
		"Registers", m.Registers.AreaMM2, m.Registers.PowerMW, m.Registers.LatencyNS)
	fmt.Fprintf(&sb, "  %-22s area %.4f mm² (0.004)   power %.1f mW (5.4)  latency %.2f ns (0.12)",
		"Conflict miss detector", m.ConflictMissDetector.AreaMM2, m.ConflictMissDetector.PowerMW, m.ConflictMissDetector.LatencyNS)
	return sb.String()
}

// Summary renders the Figure 10 sweep.
func (r Figure10Result) Summary() string {
	var sb strings.Builder
	sb.WriteString("Figure 10 (bandwidth sweep 0.1 / 10 / 1000 bps):\n")
	for _, row := range r.Rows {
		if channelSpec(row.Channel).Oscillatory() {
			fmt.Fprintf(&sb, "  %-8s %7.1f bps: peak %.3f at lag %d, detected=%v, bit errors=%d\n",
				row.Channel, row.PaperBPS, row.PeakValue, row.PeakLag, row.Detected, row.BitErrors)
		} else {
			fmt.Fprintf(&sb, "  %-8s %7.1f bps: LR=%.3f burst-mean=%.1f, detected=%v, bit errors=%d\n",
				row.Channel, row.PaperBPS, row.LikelihoodRatio, row.BurstMean, row.Detected, row.BitErrors)
		}
	}
	sb.WriteString("  (paper: LR stays ≥0.9 at every bandwidth; zero misses)")
	return sb.String()
}

// Summary renders the Figure 11 window study.
func (r Figure11Result) Summary() string {
	var sb strings.Builder
	sb.WriteString("Figure 11 (0.1 bps cache channel, reduced observation windows):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %.2f× quantum: peak %.3f at lag %d, detected=%v\n",
			row.Fraction, row.PeakValue, row.PeakLag, row.Detected)
	}
	sb.WriteString("  (paper: finer windows recover significant repetitive peaks)")
	return sb.String()
}

// Summary renders the Figure 12 aggregate.
func (r Figure12Result) Summary() string {
	return fmt.Sprintf("Figure 12 (%d random messages): worst LR bus=%.3f div=%.3f; cache peak ∈ [%.3f, %.3f], lag ∈ [%d, %d]; all detected=%v (paper: LR>0.9, insignificant ACF deviations)",
		r.Messages, r.BusLRMin, r.DivLRMin, r.CachePeakMin, r.CachePeakMax, r.CacheLagMin, r.CacheLagMax, r.AllDetected)
}

// Summary renders the Figure 13 sweep.
func (r Figure13Result) Summary() string {
	var sb strings.Builder
	sb.WriteString("Figure 13 (cache channel set-count sweep):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %3d sets: peak %.3f at lag %d, detected=%v, bit errors=%d\n",
			row.Sets, row.PeakValue, row.PeakLag, row.Detected, row.BitErrors)
	}
	sb.WriteString("  (paper: peaks ≈0.95, lag tracks the set count, biased up by noise)")
	return sb.String()
}

// Summary renders the sensor fault robustness sweep.
func (r RobustnessResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Robustness (sensor fault sweep, uniform event drop): pass-through identical=%v\n",
		r.BaselineIdentical)
	for _, row := range r.Rows {
		if channelSpec(row.Channel).Oscillatory() {
			fmt.Fprintf(&sb, "  %-8s drop=%.2f: peak=%.3f detected=%v confidence=%.3f measured-loss=%.3f\n",
				row.Channel, row.DropRate, row.PeakValue, row.Detected, row.Confidence, row.MeasuredLoss)
		} else {
			fmt.Fprintf(&sb, "  %-8s drop=%.2f: LR=%.3f detected=%v confidence=%.3f measured-loss=%.3f\n",
				row.Channel, row.DropRate, row.LikelihoodRatio, row.Detected, row.Confidence, row.MeasuredLoss)
		}
	}
	for _, row := range r.BenignRows {
		fmt.Fprintf(&sb, "  benign   drop=%.2f: worst-LR=%.3f cache-peak=%.3f alarm=%v confidence=%.3f\n",
			row.DropRate, row.LikelihoodRatio, row.PeakValue, row.Detected, row.Confidence)
	}
	sb.WriteString("  (expected: LR ≥0.9 and detection through 5% drop; benign LR <0.5 at every rate;\n   confidence <1 whenever the injector was active)")
	return sb.String()
}

// Summary renders the Figure 14 false-alarm study.
func (r Figure14Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 14 (benign pairs): %d false alarms (paper: zero)\n", r.FalseAlarms)
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-12s + %-12s busLR=%.3f divLR=%.3f cache-peak=%.3f alarm=%v\n",
			row.Pair[0], row.Pair[1], row.BusLR, row.DivLR, row.PeakValue, row.FalseAlarm)
	}
	sb.WriteString("  (paper: mailserver shows a bins-5–8 second distribution at LR<0.5;\n   webserver shows brief periodicity that dies out — neither alarms)")
	return sb.String()
}

// meansByBit returns the mean series value over '0' bits and '1' bits.
func meansByBit(msg []int, series []float64) (zeroMean, oneMean float64) {
	var z, o float64
	var nz, no int
	n := len(msg)
	if len(series) < n {
		n = len(series)
	}
	for i := 0; i < n; i++ {
		if msg[i] == 0 {
			z += series[i]
			nz++
		} else {
			o += series[i]
			no++
		}
	}
	if nz > 0 {
		zeroMean = z / float64(nz)
	}
	if no > 0 {
		oneMean = o / float64(no)
	}
	return zeroMean, oneMean
}

// histTail renders the first maxBins bins of a histogram as a compact
// two-line table.
func histTail(h *stats.Histogram, maxBins int) string {
	if h == nil {
		return "  (no histogram)\n"
	}
	top := h.NonZeroMax()
	if top > maxBins {
		top = maxBins
	}
	var sb strings.Builder
	sb.WriteString("  density:")
	for b := 0; b <= top; b++ {
		if h.Bin(b) > 0 {
			fmt.Fprintf(&sb, " %d:%d", b, h.Bin(b))
		}
	}
	sb.WriteString("\n")
	return sb.String()
}

// WriteFigureCSVs is implemented by results that can dump their series
// for external plotting.
type csvSeries struct {
	Name string
	X    string
	Y    string
	Data []float64
}

// SeriesForCSV extracts plottable series per figure id; cmd/ccrepro
// writes them to files.
func SeriesForCSV(id string, result interface{}) []csvSeries {
	switch r := result.(type) {
	case Figure2Result:
		return []csvSeries{{Name: "fig2_latency", X: "bit", Y: "cycles", Data: r.Latency}}
	case Figure3Result:
		return []csvSeries{{Name: "fig3_latency", X: "bit", Y: "cycles", Data: r.Latency}}
	case Figure6Result:
		return []csvSeries{
			{Name: "fig6a_bus_hist", X: "density", Y: "frequency", Data: r.Bus.Floats()},
			{Name: "fig6b_div_hist", X: "density", Y: "frequency", Data: r.Div.Floats()},
		}
	case Figure7Result:
		return []csvSeries{{Name: "fig7_ratio", X: "bit", Y: "ratio", Data: r.Ratio}}
	case Figure8Result:
		return []csvSeries{{Name: "fig8_acf", X: "lag", Y: "r", Data: r.Autocorrelogram}}
	case Figure12Result:
		return []csvSeries{
			{Name: "fig12_bus_mean", X: "density", Y: "mean", Data: r.BusMean},
			{Name: "fig12_bus_min", X: "density", Y: "min", Data: r.BusMin},
			{Name: "fig12_bus_max", X: "density", Y: "max", Data: r.BusMax},
			{Name: "fig12_div_mean", X: "density", Y: "mean", Data: r.DivMean},
			{Name: "fig12_div_min", X: "density", Y: "min", Data: r.DivMin},
			{Name: "fig12_div_max", X: "density", Y: "max", Data: r.DivMax},
		}
	case Figure13Result:
		var out []csvSeries
		for _, row := range r.Rows {
			out = append(out, csvSeries{
				Name: fmt.Sprintf("fig13_acf_%dsets", row.Sets),
				X:    "lag", Y: "r", Data: row.Autocorrelogram,
			})
		}
		return out
	case Figure14Result:
		var out []csvSeries
		for _, row := range r.Rows {
			prefix := fmt.Sprintf("fig14_%s_%s", row.Pair[0], row.Pair[1])
			out = append(out,
				csvSeries{Name: prefix + "_bus", X: "density", Y: "frequency", Data: row.BusHist.Floats()},
				csvSeries{Name: prefix + "_div", X: "density", Y: "frequency", Data: row.DivHist.Floats()},
				csvSeries{Name: prefix + "_acf", X: "lag", Y: "r", Data: row.Autocorrelogram},
			)
		}
		return out
	case Figure10Result:
		var out []csvSeries
		for _, row := range r.Rows {
			if row.Hist != nil {
				out = append(out, csvSeries{
					Name: fmt.Sprintf("fig10_%s_%gbps_hist", row.Channel, row.PaperBPS),
					X:    "density", Y: "frequency", Data: row.Hist.Floats(),
				})
			}
			if row.Autocorrelogram != nil {
				out = append(out, csvSeries{
					Name: fmt.Sprintf("fig10_%s_%gbps_acf", row.Channel, row.PaperBPS),
					X:    "lag", Y: "r", Data: row.Autocorrelogram,
				})
			}
		}
		return out
	case EvasionResult:
		noiseLR := make([]float64, len(r.Rows))
		noiseErr := make([]float64, len(r.Rows))
		for i, row := range r.Rows {
			noiseLR[i] = row.LikelihoodRatio
			noiseErr[i] = row.ErrorRate
		}
		out := []csvSeries{
			{Name: "evade_noise_lr", X: "noise_index", Y: "lr", Data: noiseLR},
			{Name: "evade_noise_errrate", X: "noise_index", Y: "errrate", Data: noiseErr},
		}
		byChannel := map[string]*struct{ stat, errrate []float64 }{}
		order := []string{}
		for _, row := range r.Frontier {
			name := string(row.Channel)
			c, ok := byChannel[name]
			if !ok {
				c = &struct{ stat, errrate []float64 }{}
				byChannel[name] = c
				order = append(order, name)
			}
			c.stat = append(c.stat, row.Statistic)
			c.errrate = append(c.errrate, row.ErrorRate)
		}
		for _, name := range order {
			out = append(out,
				csvSeries{Name: "evade_frontier_" + name + "_stat", X: "setting_index", Y: "stat", Data: byChannel[name].stat},
				csvSeries{Name: "evade_frontier_" + name + "_errrate", X: "setting_index", Y: "errrate", Data: byChannel[name].errrate},
			)
		}
		return out
	case RobustnessResult:
		byChannel := map[string]*struct{ strength, confidence []float64 }{}
		order := []string{}
		rows := append(append([]RobustnessRow(nil), r.Rows...), r.BenignRows...)
		for _, row := range rows {
			name := string(row.Channel)
			if row.Channel == cchunter.ChannelNone || name == "" {
				name = "benign"
			}
			c, ok := byChannel[name]
			if !ok {
				c = &struct{ strength, confidence []float64 }{}
				byChannel[name] = c
				order = append(order, name)
			}
			strength := row.LikelihoodRatio
			if channelSpec(row.Channel).Oscillatory() {
				strength = row.PeakValue
			}
			c.strength = append(c.strength, strength)
			c.confidence = append(c.confidence, row.Confidence)
		}
		var out []csvSeries
		for _, name := range order {
			out = append(out,
				csvSeries{Name: "robust_" + name + "_strength", X: "rate_index", Y: "strength", Data: byChannel[name].strength},
				csvSeries{Name: "robust_" + name + "_confidence", X: "rate_index", Y: "confidence", Data: byChannel[name].confidence},
			)
		}
		return out
	default:
		return nil
	}
}

// WriteTrainCSV is re-exported so cmd binaries can dump trains without
// importing trace directly.
func WriteTrainCSV(w interface{ Write(p []byte) (int, error) }, t *trace.Train) error {
	return t.WriteCSV(w)
}
