package channels

import "fmt"

// The spies' fixed decision thresholds.
const (
	// busDecisionLatency is the average probe latency, in cycles,
	// above which a bus slot decodes as '1' (a contended bus).
	busDecisionLatency = 600
	// divDecisionLatency is the average division-loop latency, in
	// cycles, above which a divider slot decodes as '1'.
	divDecisionLatency = 150
	// ringSlowFracDen is the ring spy's decision denominator: a slot
	// decodes as '1' when more than 1/ringSlowFracDen of its probes
	// ran slower than the calibrated uncontended baseline.
	ringSlowFracDen = 8
)

// Decode turns a spy's raw samples into what the spy learns: the
// decoded bits, and one observable per slot (Figures 2, 3 and 7 plot
// the bus, divider and cache ones). p is the protocol both ends shared.
// Each channel's decision rule lives here and nowhere else:
//
//   - bus: the average probe latency, '1' above busDecisionLatency;
//   - divider: the average loop latency, '1' above divDecisionLatency;
//   - cache: the G1/G0 probe-latency ratio, '1' above 1;
//   - ring: the share of slow probes, '1' above 1/ringSlowFracDen of
//     the probes thinned by the evader's duty cycle;
//   - tlb: the group with the most misses, lowest on ties, as a
//     tlbSymbolBits-bit symbol MSB first; the observable is its share
//     of the misses, 0 when there are none.
func Decode(s Spec, p Protocol, samples []uint64) (decoded []int, series []float64) {
	for slot := 0; len(samples) > 0; slot++ {
		var (
			v    float64
			sym  int
			bits = 1 // bits per slot
			n    int // samples per slot
		)
		switch s.Name {
		case "bus":
			avg := samples[0] / busSamplesPerBit
			v, sym, n = float64(avg), b2i(avg > busDecisionLatency), 1
		case "divider":
			avg := samples[0] / samples[1]
			v, sym, n = float64(avg), b2i(avg > divDecisionLatency), 2
		case "cache":
			ratio := float64(samples[0]) / float64(samples[1])
			v, sym, n = ratio, b2i(ratio > 1), 2
		case "ring":
			slow, probes := samples[0], samples[1]
			// Both ends know the evader's duty cycle, so the threshold
			// scales with it: a thinned '1' still clears the (equally
			// thinned) bar.
			thresh := probes
			if d := p.Evader.DutyFrac; d > 0 && d < 1 {
				thresh = uint64(float64(probes) * d)
			}
			v, sym, n = float64(slow)/float64(probes), b2i(slow*ringSlowFracDen > thresh), 2
		case "tlb":
			misses := samples[:tlbGroups]
			sym = tlbArgmax(misses)
			var total uint64
			for _, c := range misses {
				total += c
			}
			if total > 0 {
				v = float64(misses[sym]) / float64(total)
			}
			bits, n = tlbSymbolBits, tlbGroups
		default:
			panic(fmt.Sprintf("channels: no decision rule for channel %q", s.Name))
		}
		series = append(series, v)
		for k := 0; k < bits; k++ {
			if _, done := p.bitAt(slot*bits + k); done {
				break // trailing pad bits of the last symbol
			}
			decoded = append(decoded, sym>>(bits-1-k)&1)
		}
		samples = samples[n:]
	}
	return decoded, series
}

// b2i is 1 for true and 0 for false.
func b2i(one bool) int {
	if one {
		return 1
	}
	return 0
}

// tlbArgmax maps a per-group probe-miss histogram to the decoded
// symbol: the group with the most misses, lowest group on ties (the
// deterministic tie-break the golden corpus pins). An empty histogram
// decodes to 0.
func tlbArgmax(misses []uint64) int {
	best := 0
	for g := 1; g < len(misses); g++ {
		if misses[g] > misses[best] {
			best = g
		}
	}
	return best
}
