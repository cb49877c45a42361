package auditor

import "math"

// Cost estimates the CC-Auditor's hardware overheads — the Table I
// analysis. The paper derives its numbers from Cacti 5.3; Cacti is not
// reproducible in a stdlib-only Go module, so this is an analytic
// per-bit model with three structure classes (SRAM histogram buffers,
// latch-based registers, and the Bloom-filter conflict detector) whose
// coefficients are calibrated so the paper's hardware sizing
// reproduces Table I's rows. Estimates scale with the configured sizes
// for sensitivity studies.
type Cost struct {
	AreaMM2   float64 // silicon area in mm²
	PowerMW   float64 // dynamic power in mW
	LatencyNS float64 // access latency in ns
}

// CostModel groups the three Table I rows.
type CostModel struct {
	HistogramBuffers     Cost
	Registers            Cost
	ConflictMissDetector Cost
}

// costClass holds calibrated per-bit coefficients for one structure
// class.
type costClass struct {
	areaPerBitUM2 float64 // µm² per bit
	powerPerBitUW float64 // µW per bit
	latencyBaseNS float64 // latency at the reference size
	latencySlope  float64 // ns per doubling of capacity
	refBits       float64 // reference size for latency scaling
}

func (c costClass) estimate(bits float64) Cost {
	if bits <= 0 {
		return Cost{}
	}
	lat := c.latencyBaseNS + float64(c.latencySlope*math.Log2(bits/c.refBits))
	if lat < 0.05 {
		lat = 0.05 // wire-dominated floor
	}
	return Cost{
		AreaMM2:   bits * c.areaPerBitUM2 / 1e6,
		PowerMW:   bits * c.powerPerBitUW / 1e3,
		LatencyNS: lat,
	}
}

var (
	// SRAM-array histogram buffers (two buffers of 128 × 16 b = 4096 b
	// reference): 0.0028 mm², 2.8 mW, 0.17 ns at reference.
	histClass = costClass{
		areaPerBitUM2: 0.0028 * 1e6 / 4096,
		powerPerBitUW: 2.8 * 1e3 / 4096,
		latencyBaseNS: 0.17,
		latencySlope:  0.01,
		refBits:       4096,
	}
	// Latch registers (two 128 B vectors + two 16 b accumulators +
	// two 32 b countdowns = 2144 b reference): 0.0011 mm², 0.8 mW,
	// 0.17 ns.
	regClass = costClass{
		areaPerBitUM2: 0.0011 * 1e6 / 2144,
		powerPerBitUW: 0.8 * 1e3 / 2144,
		latencyBaseNS: 0.17,
		latencySlope:  0.01,
		refBits:       2144,
	}
	// Conflict-miss detector (4 Bloom filters of N bits + 7 metadata
	// bits per block; N = 4096 blocks reference → 45056 b): 0.004 mm²,
	// 5.4 mW, 0.12 ns (Bloom probes skip the wide decode of an SRAM
	// read, hence the lower latency).
	detClass = costClass{
		areaPerBitUM2: 0.004 * 1e6 / 45056,
		powerPerBitUW: 5.4 * 1e3 / 45056,
		latencyBaseNS: 0.12,
		latencySlope:  0.005,
		refBits:       45056,
	}
)

// CostSizing describes the hardware sizes the estimate is computed
// for.
type CostSizing struct {
	// HistogramBins and HistogramEntryBits size each of the two
	// histogram buffers.
	HistogramBins      int
	HistogramEntryBits int
	// VectorBytes sizes each of the two conflict vector registers.
	VectorBytes int
	// CacheBlocks is the tracked cache's block count (N).
	CacheBlocks int
}

// DefaultSizing is the paper's configuration: 128×16 b buffers, 128 B
// vectors, and a 4096-block tracked cache.
func DefaultSizing() CostSizing {
	return CostSizing{
		HistogramBins:      128,
		HistogramEntryBits: 16,
		VectorBytes:        128,
		CacheBlocks:        4096,
	}
}

// EstimateCost computes the Table I rows for a sizing.
func EstimateCost(s CostSizing) CostModel {
	histBits := float64(2 * s.HistogramBins * s.HistogramEntryBits)
	regBits := float64(2*s.VectorBytes*8 + 2*16 + 2*32)
	detBits := float64(4*s.CacheBlocks + 7*s.CacheBlocks)
	return CostModel{
		HistogramBuffers:     histClass.estimate(histBits),
		Registers:            regClass.estimate(regBits),
		ConflictMissDetector: detClass.estimate(detBits),
	}
}
