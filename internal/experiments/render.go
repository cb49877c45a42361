package experiments

import (
	"fmt"
	"strings"

	"cchunter/internal/stats"
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
