// Benchmark harness: one benchmark per paper table/figure (regenerate
// with `go test -bench=. -benchmem`), plus ablation benches for the
// design choices DESIGN.md calls out and the §V-B analysis-cost
// numbers. Benchmarks report paper-shape metrics (likelihood ratios,
// peak lags) as custom units alongside time/op.
package cchunter_test

import (
	"fmt"
	"runtime"
	"testing"

	"cchunter"
	"cchunter/internal/auditor"
	"cchunter/internal/cache"
	"cchunter/internal/conflict"
	"cchunter/internal/core"
	"cchunter/internal/experiments"
	"cchunter/internal/runner"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// benchOpts runs benches at a heavier scale than unit tests but still
// bounded; TimeScale 100 preserves the detection-relevant ratios (see
// DESIGN.md). Set TimeScale 1 by editing here for full paper scale.
var benchOpts = experiments.Options{Seed: 1, TimeScale: 100, MessageBits: 64}

func BenchmarkFigure2MemoryBusLatencyTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2(benchOpts)
		if r.BitErrors != 0 {
			b.Fatalf("bit errors: %d", r.BitErrors)
		}
	}
}

func BenchmarkFigure3DividerLatencyTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(benchOpts)
		if r.BitErrors != 0 {
			b.Fatalf("bit errors: %d", r.BitErrors)
		}
	}
}

func BenchmarkFigure4EventTrains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4(benchOpts)
		if r.BusLocks.Len() == 0 || r.DivContention.Len() == 0 {
			b.Fatal("empty trains")
		}
	}
}

func BenchmarkFigure5DensityHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5(benchOpts)
		if r.Histogram.Total() == 0 {
			b.Fatal("empty histogram")
		}
	}
}

func BenchmarkFigure6DensityHistograms(b *testing.B) {
	var busLR, divLR float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6(benchOpts)
		busLR, divLR = r.BusLR, r.DivLR
	}
	b.ReportMetric(busLR, "busLR")
	b.ReportMetric(divLR, "divLR")
}

func BenchmarkFigure7CacheRatioTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7(benchOpts)
		if r.BitErrors != 0 {
			b.Fatalf("bit errors: %d", r.BitErrors)
		}
	}
}

func BenchmarkFigure8Autocorrelogram(b *testing.B) {
	var peak float64
	var lag int
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8(benchOpts)
		if !r.Detected {
			b.Fatal("cache channel missed")
		}
		peak, lag = r.PeakValue, r.PeakLag
	}
	b.ReportMetric(peak, "peak")
	b.ReportMetric(float64(lag), "peakLag")
}

func BenchmarkTableIAuditorCost(b *testing.B) {
	var m auditor.CostModel
	for i := 0; i < b.N; i++ {
		m = experiments.TableI().Model
	}
	b.ReportMetric(m.HistogramBuffers.AreaMM2*1000, "hist-area-um2x1000")
	b.ReportMetric(m.ConflictMissDetector.PowerMW, "detector-mW")
}

func BenchmarkFigure10BandwidthSweep(b *testing.B) {
	opts := benchOpts
	opts.MessageBits = 32
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10(opts)
		for _, row := range r.Rows {
			if !row.Detected {
				b.Fatalf("%s at %g bps missed", row.Channel, row.PaperBPS)
			}
		}
	}
}

func BenchmarkFigure11WindowFractions(b *testing.B) {
	var quarter float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure11(benchOpts)
		quarter = r.Rows[3].PeakValue
	}
	b.ReportMetric(quarter, "quarter-peak")
}

func BenchmarkFigure12MessagePatterns(b *testing.B) {
	opts := benchOpts
	opts.MessageBits = 32
	opts.Messages = 8 // paper: 256 messages
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure12(opts)
		if !r.AllDetected {
			b.Fatal("a message escaped detection")
		}
		worst = r.BusLRMin
	}
	b.ReportMetric(worst, "worst-busLR")
}

func BenchmarkFigure13SetCountSweep(b *testing.B) {
	var lag64 int
	for i := 0; i < b.N; i++ {
		r := experiments.Figure13(benchOpts)
		for _, row := range r.Rows {
			if !row.Detected {
				b.Fatalf("%d sets missed", row.Sets)
			}
			if row.Sets == 64 {
				lag64 = row.PeakLag
			}
		}
	}
	b.ReportMetric(float64(lag64), "lag-at-64-sets")
}

func BenchmarkFigure14FalseAlarms(b *testing.B) {
	opts := benchOpts
	opts.Quanta = 32
	for i := 0; i < b.N; i++ {
		r := experiments.Figure14(opts)
		if r.FalseAlarms != 0 {
			b.Fatalf("%d false alarms", r.FalseAlarms)
		}
	}
}

// --- §V-B software analysis costs ------------------------------------

// BenchmarkClusteringCost measures one recurrent-burst analysis over a
// full 512-quantum window (the paper reports 0.25 s worst case, 0.02 s
// with feature dimension reduction).
func BenchmarkClusteringCost(b *testing.B) {
	rng := stats.NewRNG(1)
	records := make([]auditor.QuantumHistogram, 512)
	for i := range records {
		h := stats.NewHistogram(128)
		h.AddN(0, 2400)
		h.AddN(18+rng.Intn(5), uint64(20+rng.Intn(80)))
		h.AddN(1+rng.Intn(3), uint64(rng.Intn(10)))
		records[i] = auditor.QuantumHistogram{Quantum: uint64(i), Hist: h}
	}
	window := core.DefaultDetectorConfig(1, 0).WindowQuanta
	ws := core.BorrowWorkspace()
	defer ws.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.AnalyzeBursts(records, window, ws)
		if !a.Detected {
			b.Fatal("synthetic channel window must detect")
		}
	}
}

// BenchmarkAutocorrelationCost measures one oscillation analysis over a
// quantum's conflict train (the paper reports 0.001 s worst case).
func BenchmarkAutocorrelationCost(b *testing.B) {
	tr := trace.NewTrain(0)
	cycle := uint64(0)
	for bit := 0; bit < 10; bit++ {
		for s := 0; s < 256; s++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 0, Victim: 2, Unit: uint32(s)})
			cycle += 1000
		}
		for s := 0; s < 256; s++ {
			tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: 2, Victim: 0, Unit: uint32(s)})
			cycle += 1000
		}
	}
	cfg := core.DefaultOscillationConfig()
	ws := core.BorrowWorkspace()
	defer ws.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.AnalyzeOscillation(tr, cfg, ws)
		if !a.Detected {
			b.Fatal("synthetic train must detect")
		}
	}
}

// BenchmarkAutocorrelogram times the Wiener–Khinchin FFT path at
// paper-scale train lengths (a busy quantum's conflict train and the
// detector's deepest lag budget); internal/stats'
// BenchmarkAutocorrelogramCrossover times the direct O(n·maxLag) path
// against it. The fft sub-benchmark gives every call a fresh
// stats.Workspace, as a one-off caller would; fft-workspace is the
// detector's steady-state path and must report 0 allocs/op: the
// caller-held workspace owns every scratch buffer after warmup.
func BenchmarkAutocorrelogram(b *testing.B) {
	const n, maxLag = 65536, 4096
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%17) - 8
	}
	b.Run("fft", func(b *testing.B) {
		var acf []float64
		for i := 0; i < b.N; i++ {
			var w stats.Workspace // fresh scratch buffers every call
			acf = w.Autocorrelogram(xs, maxLag)
		}
		b.ReportMetric(acf[0], "r0")
	})
	b.Run("fft-workspace", func(b *testing.B) {
		w := stats.NewWorkspace()
		w.Autocorrelogram(xs, maxLag) // warm the scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		var acf []float64
		for i := 0; i < b.N; i++ {
			acf = w.Autocorrelogram(xs, maxLag)
		}
		b.ReportMetric(acf[0], "r0")
	})
}

// --- Ablations --------------------------------------------------------

// BenchmarkConflictTrackerAblation compares the practical
// generation/Bloom tracker against the ideal LRU stack on the same
// cache-channel scenario: detection quality (peak lag/value) and run
// cost.
func BenchmarkConflictTrackerAblation(b *testing.B) {
	for _, ideal := range []bool{false, true} {
		name := "generational"
		if ideal {
			name = "ideal-lru-stack"
		}
		b.Run(name, func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				res, err := cchunter.Scenario{
					Channel:       cchunter.ChannelSharedCache,
					BandwidthBPS:  1000,
					Message:       cchunter.RandomMessage(16, 1),
					CacheSets:     256,
					QuantumCycles: 25_000_000,
					IdealTracker:  ideal,
				}.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Report.Detected {
					b.Fatal("channel missed")
				}
				peak = res.Report.Oscillation.Best.PeakValue
			}
			b.ReportMetric(peak, "peak")
		})
	}
}

// BenchmarkTrackerMicro compares the trackers' per-access cost on a
// random access stream. The access→tracker path is the simulator's
// innermost loop; allocs/op must read 0 for both trackers.
func BenchmarkTrackerMicro(b *testing.B) {
	c := cache.MustNew(cache.Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8, HitLatency: 12})
	trackers := map[string]conflict.Tracker{
		"generational":    conflict.MustNewGenerational(conflict.GenerationalConfig{TotalBlocks: c.NumBlocks()}),
		"ideal-lru-stack": conflict.MustNewIdeal(c.NumBlocks()),
	}
	for name, tr := range trackers {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			rng := stats.NewRNG(7)
			tr.Reset()
			for i := 0; i < b.N; i++ {
				addr := uint64(rng.Intn(1<<15)) << 6
				r := c.Access(addr, uint8(rng.Intn(8)))
				tr.Observe(conflict.Observation{
					LineAddr: r.LineAddr, Set: r.Set, Block: r.Block, Hit: r.Hit,
					Evicted: r.Evicted, EvictedLine: r.EvictedLine, EvictedOwner: r.EvictedOwner,
				})
			}
		})
	}
}

// BenchmarkSeriesFormulationAblation compares the robust ±1/0 couple
// projection (this implementation's default) against the paper's raw
// appearance-order pair-ID series on a noisy conflict train: the raw
// series loses the peak as noise share grows, the couple projection
// only sees the period stretch.
func BenchmarkSeriesFormulationAblation(b *testing.B) {
	mkTrain := func(noiseEvery int) *trace.Train {
		tr := trace.NewTrain(0)
		rng := stats.NewRNG(3)
		cycle := uint64(0)
		n := 0
		for bit := 0; bit < 16; bit++ {
			for s := 0; s < 256; s++ {
				actor, victim := uint8(0), uint8(2)
				if s >= 128 {
					actor, victim = 2, 0
				}
				tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss, Actor: actor, Victim: victim, Unit: uint32(s)})
				cycle += 500
				n++
				if noiseEvery > 0 && n%noiseEvery == 0 {
					tr.Append(trace.Event{Cycle: cycle, Kind: trace.KindConflictMiss,
						Actor: uint8(3 + rng.Intn(4)), Victim: uint8(3 + rng.Intn(4)), Unit: uint32(rng.Intn(64))})
					cycle += 500
				}
			}
		}
		return tr
	}
	for _, raw := range []bool{false, true} {
		name := "couple-projection"
		if raw {
			name = "raw-pair-ids"
		}
		b.Run(name, func(b *testing.B) {
			tr := mkTrain(4) // 20% noise
			cfg := core.DefaultOscillationConfig()
			cfg.RawPairSeries = raw
			ws := core.BorrowWorkspace()
			defer ws.Release()
			var peak float64
			for i := 0; i < b.N; i++ {
				a := core.AnalyzeOscillation(tr, cfg, ws)
				peak = a.PeakValue
			}
			b.ReportMetric(peak, "peak-at-20pct-noise")
		})
	}
}

// BenchmarkDeltaTSweep shows the sensitivity of the bus channel's
// density histogram to the observation window choice (§IV-B's α
// discussion): Δt an order of magnitude off in either direction
// degrades the burst distribution's separation.
func BenchmarkDeltaTSweep(b *testing.B) {
	// One simulated run, analyzed at several Δt values.
	res, err := cchunter.Scenario{
		Channel:       cchunter.ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       cchunter.RandomMessage(32, 1),
		QuantumCycles: 2_500_000,
		RecordRaw:     true,
	}.Run()
	if err != nil {
		b.Fatal(err)
	}
	locks := res.RawTrain.FilterKind(trace.KindBusLock)
	for _, dt := range []uint64{10_000, 100_000, 1_000_000} {
		b.Run("dt="+itoa(dt), func(b *testing.B) {
			var lr float64
			for i := 0; i < b.N; i++ {
				h := stats.NewHistogram(128)
				for _, d := range locks.Densities(0, res.EndCycle, dt, false) {
					h.Add(d)
				}
				lr = core.LikelihoodRatio(h, core.ThresholdDensity(h))
			}
			b.ReportMetric(lr, "LR")
		})
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Parallel experiment runner --------------------------------------

// BenchmarkRunnerParallelism compares the experiment worker pool at
// one worker (the serial path ccrepro -j 1 takes) against GOMAXPROCS
// workers on Figure 12's per-message fan-out — the speedup the
// parallel sweep buys on a multicore host. The determinism gate
// (TestDeterminismAcrossWorkers, ccrepro CI diff) guarantees both
// configurations produce byte-identical results, so time/op is the
// only thing that may differ between the sub-benchmarks.
func BenchmarkRunnerParallelism(b *testing.B) {
	opts := benchOpts
	opts.MessageBits = 16
	opts.Messages = 8
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			o := opts
			o.Workers = workers
			for i := 0; i < b.N; i++ {
				r := experiments.Figure12(o)
				if !r.AllDetected {
					b.Fatal("a message escaped detection")
				}
			}
		})
	}
}

// BenchmarkRunnerOverhead measures the pool's own cost per job —
// dispatch, seed derivation, and result collection — with trivial job
// bodies, so regressions in the orchestrator itself are visible
// without simulator noise.
func BenchmarkRunnerOverhead(b *testing.B) {
	jobs := make([]runner.Job, 256)
	for i := range jobs {
		jobs[i] = runner.Job{
			Name: fmt.Sprintf("job-%03d", i),
			Run:  func(seed uint64) (interface{}, error) { return seed, nil },
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(runtime.GOMAXPROCS(0), 1, jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs/op")
}

// BenchmarkEngineThroughput measures raw simulator speed: simulated
// cycles per wall second on a busy 8-context machine.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := cchunter.Scenario{
			Channel:        cchunter.ChannelNone,
			Workloads:      []string{"gobmk", "sjeng", "bzip2", "h264ref", "stream", "stream"},
			DurationQuanta: 8,
			QuantumCycles:  2_500_000,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.EndCycle) / 1000) // "KB" ≈ kilocycles
	}
}

// BenchmarkMetricsOverhead runs the same scenario with the metrics
// registry absent (the default nil fast path every uninstrumented run
// takes — each hot-path hook is one nil check) and attached. The
// disabled sub-benchmark is the shipping configuration: CI's benchmark
// trajectory gate (ccrepro -bench-out vs BENCH_baseline.json)
// pins its cost, and the two sub-benchmarks let a local run quantify
// the enabled-path premium directly.
func BenchmarkMetricsOverhead(b *testing.B) {
	run := func(b *testing.B, reg *cchunter.MetricsRegistry) {
		for i := 0; i < b.N; i++ {
			res, err := cchunter.Scenario{
				Channel:       cchunter.ChannelMemoryBus,
				BandwidthBPS:  1000,
				Message:       cchunter.RandomMessage(32, 1),
				QuantumCycles: 2_500_000,
				Metrics:       reg,
			}.Run()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Report.Detected {
				b.Fatal("channel missed")
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, cchunter.NewMetricsRegistry()) })
}

// BenchmarkExtMitigation runs the post-detection defense study.
func BenchmarkExtMitigation(b *testing.B) {
	opts := benchOpts
	opts.MessageBits = 32
	for i := 0; i < b.N; i++ {
		r := experiments.ExtMitigation(opts)
		for _, row := range r.Rows {
			if row.Mitigation == "" && row.BitErrors != 0 {
				b.Fatalf("%s baseline broken", row.Channel)
			}
		}
	}
}

// BenchmarkExtEvasion runs the §III camouflage sweep.
func BenchmarkExtEvasion(b *testing.B) {
	opts := benchOpts
	opts.MessageBits = 32
	var fullNoiseErr float64
	for i := 0; i < b.N; i++ {
		r := experiments.ExtEvasion(opts)
		fullNoiseErr = r.Rows[len(r.Rows)-1].ErrorRate
	}
	b.ReportMetric(fullNoiseErr, "err-rate-at-full-camouflage")
}
