package experiments

import (
	"testing"

	"cchunter"
)

// fast keeps unit-test experiment runs quick; benches run closer to
// paper scale.
var fast = Options{Seed: 1, TimeScale: 100, MessageBits: 16}

func TestFigure2Shape(t *testing.T) {
	r := Figure2(fast)
	if r.BitErrors != 0 {
		t.Errorf("bit errors = %d", r.BitErrors)
	}
	if len(r.Latency) != len(r.Message) {
		t.Fatalf("series length %d vs %d bits", len(r.Latency), len(r.Message))
	}
	// Contended ('1') latencies clearly above uncontended ('0') ones.
	lo, hi := minMaxByBit(r.Message, r.Latency)
	if hi < 2*lo {
		t.Errorf("latency separation too weak: '0'≈%v '1'≈%v", lo, hi)
	}
}

// minMaxByBit returns the mean series value over '0' bits and over '1'
// bits.
func minMaxByBit(msg []int, series []float64) (zeroMean, oneMean float64) {
	var z, o float64
	var nz, no int
	for i, b := range msg {
		if b == 0 {
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

func TestFigure3Shape(t *testing.T) {
	r := Figure3(fast)
	if r.BitErrors != 0 {
		t.Errorf("bit errors = %d", r.BitErrors)
	}
	lo, hi := minMaxByBit(r.Message, r.Latency)
	if hi < 1.5*lo {
		t.Errorf("loop latency separation too weak: '0'≈%v '1'≈%v", lo, hi)
	}
}

func TestFigure4Trains(t *testing.T) {
	r := Figure4(fast)
	if r.BusLocks.Len() == 0 || r.DivContention.Len() == 0 {
		t.Fatal("empty trains")
	}
	// Thick bands: both trains must show large bursts separated by
	// silence (inter-event gap spread).
	for name, tr := range map[string]interface{ InterEventIntervals() []uint64 }{
		"bus": r.BusLocks, "div": r.DivContention,
	} {
		gaps := tr.InterEventIntervals()
		var small, large int
		for _, g := range gaps {
			if g < 10_000 {
				small++
			}
			if g > 500_000 {
				large++
			}
		}
		if small == 0 || large == 0 {
			t.Errorf("%s train not banded: %d tight, %d wide gaps", name, small, large)
		}
	}
}

func TestFigure5Didactic(t *testing.T) {
	r := Figure5(fast)
	if r.Histogram.Total() == 0 {
		t.Fatal("empty histogram")
	}
	// The bursty train must disagree with its Poisson reference in the
	// tail: mass at high densities the Poisson predicts as ~zero.
	top := r.Histogram.NonZeroMax()
	if top < 5 {
		t.Fatalf("no burst tail: top bin %d", top)
	}
	if r.Poisson[top] > 0.5 {
		t.Errorf("Poisson predicts %v windows at density %d; bursts should be surprising", r.Poisson[top], top)
	}
}

func TestFigure6Histograms(t *testing.T) {
	r := Figure6(fast)
	if r.BusLR < 0.9 || r.DivLR < 0.9 {
		t.Errorf("likelihood ratios: bus=%v div=%v, want ≥0.9", r.BusLR, r.DivLR)
	}
	if r.BusBurstMean < 10 || r.BusBurstMean > 40 {
		t.Errorf("bus burst mean %v, paper shows ≈20", r.BusBurstMean)
	}
	if r.DivBurstMean < 50 || r.DivBurstMean > 128 {
		t.Errorf("div burst mean %v, paper shows ≈84–105", r.DivBurstMean)
	}
	// Both histograms must be bimodal: big bin 0 plus a distinct tail.
	if r.Bus.Bin(0) == 0 || r.Div.Bin(0) == 0 {
		t.Error("missing non-burst mass at bin 0")
	}
}

func TestFigure7Ratios(t *testing.T) {
	r := Figure7(fast)
	if r.BitErrors != 0 {
		t.Errorf("bit errors = %d", r.BitErrors)
	}
	for i, b := range r.Message {
		if b == 1 && r.Ratio[i] <= 1 {
			t.Errorf("bit %d: '1' ratio %v", i, r.Ratio[i])
		}
		if b == 0 && r.Ratio[i] >= 1 {
			t.Errorf("bit %d: '0' ratio %v", i, r.Ratio[i])
		}
	}
}

func TestFigure8Oscillation(t *testing.T) {
	r := Figure8(fast)
	if !r.Detected {
		t.Fatalf("cache channel not detected (peak %v at %d)", r.PeakValue, r.PeakLag)
	}
	// Paper: peak ≈0.893 at lag 533 for 512 sets — close to, and
	// typically slightly above, the set count.
	if r.PeakLag < 490 || r.PeakLag > 600 {
		t.Errorf("peak lag %d, want ≈512", r.PeakLag)
	}
	if r.PeakValue < 0.75 {
		t.Errorf("peak value %v, want ≥0.75 (paper: 0.893; see EXPERIMENTS.md)", r.PeakValue)
	}
	if r.Train.Len() < 2048 {
		t.Errorf("conflict train too short: %d", r.Train.Len())
	}
}

func TestTableI(t *testing.T) {
	m := TableI().Model
	if m.HistogramBuffers.AreaMM2 <= 0 {
		t.Fatal("empty model")
	}
	// Total area must stay negligible vs the paper's 263 mm² i7 die.
	total := m.HistogramBuffers.AreaMM2 + m.Registers.AreaMM2 + m.ConflictMissDetector.AreaMM2
	if total > 0.05 {
		t.Errorf("auditor area %v mm² suspiciously large", total)
	}
}

func TestFigure10BandwidthSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth sweep is slow")
	}
	r := Figure10(Options{Seed: 1, TimeScale: 100, MessageBits: 16})
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Detected {
			t.Errorf("%s at %g bps not detected (LR=%v peak=%v)",
				row.Channel, row.PaperBPS, row.LikelihoodRatio, row.PeakValue)
		}
		switch row.Channel {
		case cchunter.ChannelMemoryBus, cchunter.ChannelIntegerDivider:
			if row.LikelihoodRatio < 0.9 {
				t.Errorf("%s at %g bps LR = %v, want ≥0.9", row.Channel, row.PaperBPS, row.LikelihoodRatio)
			}
		}
	}
}

func TestFigure11FinerWindowsStronger(t *testing.T) {
	if testing.Short() {
		t.Skip("low-bandwidth run is slow")
	}
	r := Figure11(Options{Seed: 1, TimeScale: 100})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	full := r.Rows[0]
	quarter := r.Rows[3]
	if !quarter.Detected {
		t.Errorf("quarter-quantum window failed to detect: %+v", quarter)
	}
	if quarter.PeakValue < full.PeakValue {
		t.Errorf("finer window peak %v weaker than full-quantum %v",
			quarter.PeakValue, full.PeakValue)
	}
}

func TestFigure12MessagePatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-message sweep is slow")
	}
	r := Figure12(Options{Seed: 1, TimeScale: 100, MessageBits: 16, Messages: 4})
	if !r.AllDetected {
		t.Error("some message pattern escaped detection")
	}
	if r.BusLRMin < 0.9 || r.DivLRMin < 0.9 {
		t.Errorf("worst LRs: bus=%v div=%v", r.BusLRMin, r.DivLRMin)
	}
	// Cache autocorrelation deviations stay small across messages.
	if r.CachePeakMax-r.CachePeakMin > 0.2 {
		t.Errorf("cache peak range [%v, %v] too wide", r.CachePeakMin, r.CachePeakMax)
	}
	if len(r.BusMean) == 0 || len(r.DivMean) == 0 {
		t.Error("missing bin statistics")
	}
	for b := range r.BusMean {
		if r.BusMin[b] > r.BusMean[b] || r.BusMean[b] > r.BusMax[b] {
			t.Fatalf("bin %d: min/mean/max ordering broken", b)
		}
	}
}

func TestFigure13SetSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("set sweep is slow")
	}
	r := Figure13(Options{Seed: 1, TimeScale: 100, MessageBits: 16})
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Detected {
			t.Errorf("%d sets: not detected", row.Sets)
			continue
		}
		// Lag tracks the set count, biased upward by noise.
		if row.PeakLag < row.Sets*9/10 || row.PeakLag > row.Sets*14/10 {
			t.Errorf("%d sets: lag %d", row.Sets, row.PeakLag)
		}
		if row.PeakValue < 0.7 {
			t.Errorf("%d sets: peak %v, paper shows ≈0.95", row.Sets, row.PeakValue)
		}
	}
}

func TestFigure14NoFalseAlarms(t *testing.T) {
	if testing.Short() {
		t.Skip("false-alarm sweep is slow")
	}
	r := Figure14(Options{Seed: 1, TimeScale: 100, Quanta: 24})
	if r.FalseAlarms != 0 {
		for _, row := range r.Rows {
			if row.FalseAlarm {
				t.Errorf("false alarm on %v (busLR=%v divLR=%v peak=%v)",
					row.Pair, row.BusLR, row.DivLR, row.PeakValue)
			}
		}
	}
	// The paper's specific observations:
	for _, row := range r.Rows {
		if row.Pair[0] == "mailserver" {
			if row.BusHist.TotalFrom(4) == 0 {
				t.Error("mailserver should show a second distribution at bins ≥4")
			}
			if row.BusLR >= 0.5 {
				t.Errorf("mailserver bus LR = %v, paper reports <0.5", row.BusLR)
			}
		}
		if row.PeakValue > 0.9 {
			t.Errorf("%v: benign peak %v looks like a covert channel", row.Pair, row.PeakValue)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.norm()
	if o.Seed != 1 || o.TimeScale != 100 || o.MessageBits != 64 {
		t.Errorf("defaults: %+v", o)
	}
	if o.Messages != 32 || o.Quanta != 512 || DefaultMessages != 32 || DefaultQuanta != 512 {
		t.Errorf("run sizes: %d messages, %d quanta; want 32 and 512", o.Messages, o.Quanta)
	}
	if o.quantum() != 2_500_000 {
		t.Errorf("quantum = %d", o.quantum())
	}
	if o.cacheScale() != 10 || o.cacheQuantum() != 25_000_000 {
		t.Errorf("cache scaling wrong: %v %v", o.cacheScale(), o.cacheQuantum())
	}
	paper := Options{TimeScale: 1}.norm()
	if paper.quantum() != 250_000_000 || paper.cacheScale() != 1 {
		t.Error("paper scale wrong")
	}
}

func TestBitsForBandwidth(t *testing.T) {
	o := Options{MessageBits: 64}.norm()
	if bitsForBandwidth(o, 0.1) != 4 {
		t.Error("low bandwidth should use few bits")
	}
	if bitsForBandwidth(o, 10) != 16 {
		t.Error("mid bandwidth should cap at 16")
	}
	if bitsForBandwidth(o, 1000) != 64 {
		t.Error("high bandwidth should use the full message")
	}
}
