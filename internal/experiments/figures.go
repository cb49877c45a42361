package experiments

import (
	"cchunter"
	"cchunter/internal/auditor"
	"cchunter/internal/core"
	"cchunter/internal/runner"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// Figure2Result is the memory bus channel's per-bit latency trace.
type Figure2Result struct {
	// Message is the transmitted bit pattern.
	Message []int
	// Latency is the spy's average memory access latency per bit
	// (cycles): high for '1' (contended bus), low for '0'.
	Latency []float64
	// BitErrors is the channel's decoding error count.
	BitErrors int
}

// Figure2 reproduces "Average latency per memory access in Memory Bus
// Covert Channel" for a 64-bit message.
func Figure2(o Options) Figure2Result {
	o = o.norm()
	msg := o.message()
	res := o.run(cchunter.Scenario{
		Channel:        cchunter.ChannelMemoryBus,
		BandwidthBPS:   o.rowBPS(1000),
		Message:        msg,
		QuantumCycles:  o.rowQuantum(1000),
		DurationQuanta: 2,
		Seed:           o.Seed,
	})
	n := len(msg)
	if len(res.PerBitSeries) < n {
		n = len(res.PerBitSeries)
	}
	return Figure2Result{
		Message:   msg,
		Latency:   res.PerBitSeries[:n],
		BitErrors: cchunter.BitErrors(msg, res.Decoded[:n]),
	}
}

// Figure3Result is the divider channel's per-bit loop latency trace.
type Figure3Result struct {
	Message   []int
	Latency   []float64 // average division-loop latency per bit
	BitErrors int
}

// Figure3 reproduces "Average loop execution time in Integer Divider
// Covert Channel" for the same message.
func Figure3(o Options) Figure3Result {
	o = o.norm()
	msg := o.message()
	res := o.run(cchunter.Scenario{
		Channel:        cchunter.ChannelIntegerDivider,
		BandwidthBPS:   o.rowBPS(1000),
		Message:        msg,
		QuantumCycles:  o.rowQuantum(1000),
		DurationQuanta: 2,
		Seed:           o.Seed,
	})
	n := len(msg)
	if len(res.PerBitSeries) < n {
		n = len(res.PerBitSeries)
	}
	return Figure3Result{
		Message:   msg,
		Latency:   res.PerBitSeries[:n],
		BitErrors: cchunter.BitErrors(msg, res.Decoded[:n]),
	}
}

// Figure4Result holds the two event trains of Figure 4.
type Figure4Result struct {
	// BusLocks is the memory bus lock event train (Figure 4a).
	BusLocks *trace.Train
	// DivContention is the divider contention event train (4b).
	DivContention *trace.Train
}

// Figure4 reproduces the event-train raster plots: thick bands of
// events wherever the trojan transmits a '1'.
func Figure4(o Options) Figure4Result {
	o = o.norm()
	msg := o.message()
	results := o.runJobs([]runner.Job{
		o.scenarioJob("fig4/bus", cchunter.Scenario{
			Channel:        cchunter.ChannelMemoryBus,
			BandwidthBPS:   o.rowBPS(1000),
			Message:        msg,
			QuantumCycles:  o.rowQuantum(1000),
			DurationQuanta: 2,
			Seed:           o.Seed,
			RecordRaw:      true,
		}, nil),
		o.scenarioJob("fig4/div", cchunter.Scenario{
			Channel:        cchunter.ChannelIntegerDivider,
			BandwidthBPS:   o.rowBPS(1000),
			Message:        msg,
			QuantumCycles:  o.rowQuantum(1000),
			DurationQuanta: 2,
			Seed:           o.Seed,
			RecordRaw:      true,
		}, nil),
	})
	bus := results[0].Value.(*cchunter.Result)
	div := results[1].Value.(*cchunter.Result)
	return Figure4Result{
		BusLocks:      bus.RawTrain.FilterKind(trace.KindBusLock),
		DivContention: div.RawTrain.FilterKind(trace.KindDivContention),
	}
}

// Figure5Result is the didactic event-density histogram construction.
type Figure5Result struct {
	// Densities are the per-Δt event counts of the synthetic train.
	Densities []int
	// Histogram is the resulting event density histogram.
	Histogram *stats.Histogram
	// Poisson is the same-rate Poisson expectation per bin (Figure 5's
	// dotted line).
	Poisson []float64
}

// Figure5 reproduces the illustration of §IV-B: a bursty event train,
// its density histogram, and the Poisson reference a random train of
// the same rate would follow.
func Figure5(o Options) Figure5Result {
	o = o.norm()
	rng := stats.NewRNG(o.Seed)
	train := trace.NewTrain(0)
	// Synthetic train: sparse random singles plus periodic bursts.
	var cycle uint64
	for i := 0; i < 64; i++ {
		if i%8 == 3 { // burst
			for j := 0; j < 12; j++ {
				train.Append(trace.Event{Cycle: cycle + uint64(j)*20})
			}
		} else if rng.Float64() < 0.5 {
			train.Append(trace.Event{Cycle: cycle + uint64(rng.Intn(900))})
		}
		cycle += 1000
	}
	densities := train.Densities(0, cycle, 1000, false)
	hist := stats.NewHistogram(16)
	for _, d := range densities {
		hist.Add(d)
	}
	lambda := stats.MeanInts(densities)
	poisson := make([]float64, hist.NumBins())
	total := float64(hist.Total())
	for k := range poisson {
		poisson[k] = total * stats.PoissonPMF(lambda, k)
	}
	return Figure5Result{Densities: densities, Histogram: hist, Poisson: poisson}
}

// Figure6Result holds the two event density histograms of Figure 6
// plus the detection statistics read off them.
type Figure6Result struct {
	Bus, Div                   *stats.Histogram
	BusThreshold, DivThreshold int
	BusLR, DivLR               float64
	BusBurstMean, DivBurstMean float64
}

// Figure6 reproduces the event density histograms for the bus channel
// (Δt = 100k cycles; burst bin around density 20) and the divider
// channel (Δt = 500 cycles; burst distribution around bins 84–105).
func Figure6(o Options) Figure6Result {
	o = o.norm()
	msg := o.message()
	results := o.runJobs([]runner.Job{
		o.scenarioJob("fig6/bus", cchunter.Scenario{
			Channel:        cchunter.ChannelMemoryBus,
			BandwidthBPS:   o.rowBPS(1000),
			Message:        msg,
			QuantumCycles:  o.rowQuantum(1000),
			DurationQuanta: 2,
			Seed:           o.Seed,
		}, nil),
		o.scenarioJob("fig6/div", cchunter.Scenario{
			Channel:        cchunter.ChannelIntegerDivider,
			BandwidthBPS:   o.rowBPS(1000),
			Message:        msg,
			QuantumCycles:  o.rowQuantum(1000),
			DurationQuanta: 2,
			Seed:           o.Seed,
		}, nil),
	})
	bus := results[0].Value.(*cchunter.Result)
	div := results[1].Value.(*cchunter.Result)
	out := Figure6Result{Bus: bus.BusHistogram, Div: div.DivHistogram}
	out.BusThreshold = core.ThresholdDensity(out.Bus)
	out.DivThreshold = core.ThresholdDensity(out.Div)
	out.BusLR = core.LikelihoodRatio(out.Bus, out.BusThreshold)
	out.DivLR = core.LikelihoodRatio(out.Div, out.DivThreshold)
	out.BusBurstMean = out.Bus.MeanDensityFrom(out.BusThreshold)
	out.DivBurstMean = out.Div.MeanDensityFrom(out.DivThreshold)
	return out
}

// Figure7Result is the cache channel's per-bit access-time ratio.
type Figure7Result struct {
	Message   []int
	Ratio     []float64 // G1/G0 access-time ratio per bit
	BitErrors int
}

// Figure7 reproduces "Ratios of cache access times between G1 and G0
// cache sets in Cache Covert Channel".
func Figure7(o Options) Figure7Result {
	o = o.norm()
	msg := o.message()
	res := o.run(cchunter.Scenario{
		Channel:       cchunter.ChannelSharedCache,
		BandwidthBPS:  o.cacheBPS(100),
		Message:       msg,
		CacheSets:     512,
		QuantumCycles: o.cacheQuantum(),
		Seed:          o.Seed,
	})
	n := len(msg)
	if len(res.PerBitSeries) < n {
		n = len(res.PerBitSeries)
	}
	return Figure7Result{
		Message:   msg,
		Ratio:     res.PerBitSeries[:n],
		BitErrors: cchunter.BitErrors(msg, res.Decoded[:n]),
	}
}

// Figure8Result is the cache channel's conflict-miss train and its
// autocorrelogram.
type Figure8Result struct {
	// Train is the (deduplicated) conflict-miss event train (8a).
	Train *trace.Train
	// Autocorrelogram is r_p for lags 0..1000 (8b).
	Autocorrelogram []float64
	// PeakLag and PeakValue locate the dominant peak; the paper sees
	// ≈0.893 at lag 533 for 512 sets (the offset from 512 comes from
	// interleaved random conflicts).
	PeakLag   int
	PeakValue float64
	// SetsUsed echoes the channel configuration.
	SetsUsed int
	// Detected is the oscillation verdict.
	Detected bool
}

// Figure8 reproduces the oscillatory pattern study on the shared
// cache: 512 sets used for transmission, autocorrelation peak at a lag
// close to (slightly above) the set count.
func Figure8(o Options) Figure8Result {
	o = o.norm()
	res := o.run(cchunter.Scenario{
		Channel:       cchunter.ChannelSharedCache,
		BandwidthBPS:  o.cacheBPS(100),
		Message:       o.message(),
		CacheSets:     512,
		QuantumCycles: o.cacheQuantum(),
		Seed:          o.Seed,
	})
	osc := res.Report.Oscillation
	out := Figure8Result{Train: res.ConflictTrain, SetsUsed: 512}
	if osc != nil {
		out.Autocorrelogram = osc.Best.Autocorrelogram
		out.PeakLag = osc.Best.FundamentalLag
		out.PeakValue = osc.Best.PeakValue
		out.Detected = osc.Detected
	}
	return out
}

// TableIResult is the CC-Auditor hardware cost table.
type TableIResult struct {
	Model auditor.CostModel
}

// TableI reproduces the area/power/latency estimates of the
// CC-Auditor hardware.
func TableI() TableIResult {
	return TableIResult{Model: auditor.EstimateCost(auditor.DefaultSizing())}
}
