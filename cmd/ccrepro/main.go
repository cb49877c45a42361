// Command ccrepro regenerates the paper's tables and figures on the
// simulated machine and writes the series as CSV files for plotting.
//
// Usage:
//
//	ccrepro [-fig all|2,3,6,8,...] [-out out/] [-scale 100] [-seed 1]
//	        [-messages 32] [-quanta 64] [-j N] [-v]
//	        [-watchdog 0] [-bench-out bench.json] [-metrics-out metrics.json]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Figure ids: 2 3 4 5 6 7 8 10 11 12 13 14, "t1" for Table I, "m"
// for the mitigation study, "e" for the evasion study plus the
// detection-vs-evasion frontier (adaptive jitter/duty evaders on all
// five channels), and "r" for the sensor fault robustness sweep. Each
// id is a row of experiments.Figures; the selected rows run in table
// order, and an unknown id exits 2 with the list of valid ones.
// -scale 1 runs at full paper scale (slow); the default 100× preserves
// every quantity the detector depends on (see DESIGN.md).
// -j N runs figures (and their internal sweeps) on N workers; output
// is byte-identical at every N, and -j 1 is the serial path.
// -metrics-out instruments every figure with its own metrics registry
// and writes the per-figure snapshots (counters, gauges, stage timers)
// as one JSON object keyed by figure id; the CSV output stays
// byte-identical to an uninstrumented run.
// -watchdog D supervises every figure job: a job that exceeds D or
// panics is abandoned with a typed failure instead of hanging or
// killing the run, and the fires/recoveries appear under the "runner"
// key of the -metrics-out snapshot.
// -bench-out times each figure as the best of three runs; its
// allocation counts and metrics come from the first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cchunter"
	"cchunter/internal/experiments"
	"cchunter/internal/obs"
	"cchunter/internal/runner"
)

// benchRuns is how many times -bench-out runs each figure; the
// fastest run's wall clock is recorded, since single runs of the
// ~80 ms figures spread about ±20%.
const benchRuns = 3

func main() {
	figs := flag.String("fig", "all", "comma-separated figure ids (2..8, 10..14, t1, m=mitigation, e=evasion+frontier, r=robustness) or 'all'")
	outDir := flag.String("out", "out", "directory for CSV output")
	scale := flag.Float64("scale", 100, "time scale (1 = full paper scale)")
	seed := flag.Uint64("seed", 1, "random seed")
	messages := flag.Int("messages", experiments.DefaultMessages, "messages for Figure 12 (paper: 256)")
	quanta := flag.Int("quanta", experiments.DefaultQuanta, "observation quanta for Figure 14 (paper: 512)")
	jobs := flag.Int("j", runtime.NumCPU(), "worker count for figures and their sweeps (1 = serial)")
	verbose := flag.Bool("v", false, "print per-figure timing after the run")
	benchOut := flag.String("bench-out", "", "write a benchmark-trajectory JSON report (ns, allocs, detection metrics per figure) to this file; forces -j 1 for per-figure attribution")
	metricsOut := flag.String("metrics-out", "", "instrument each figure with a pipeline metrics registry and write the per-figure snapshots as JSON to this file")
	watchdog := flag.Duration("watchdog", 0, "per-figure watchdog timeout; stuck or panicking figures become typed failures instead of hanging the run (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	figures, err := selectFigures(*figs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccrepro:", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	var bench *experiments.BenchReport
	if *benchOut != "" {
		// Serial execution makes the per-figure MemStats deltas and
		// wall-clock times attributable to one figure each.
		*jobs = 1
		rep := experiments.NewBenchReport(*seed, *scale)
		bench = &rep
	}

	opts := experiments.Options{Seed: *seed, TimeScale: *scale, Workers: *jobs, Messages: *messages, Quanta: *quanta}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	// With -metrics-out, each figure gets a private registry: its
	// internal sweep jobs share it (the registry is race-safe), and the
	// snapshots stay attributable to one figure even at -j > 1.
	var regs map[string]*cchunter.MetricsRegistry
	var poolReg *cchunter.MetricsRegistry
	if *metricsOut != "" {
		regs = make(map[string]*cchunter.MetricsRegistry)
		// Supervision counters (watchdog fires, panics recovered) land
		// in their own registry so the snapshot separates per-figure
		// pipeline work from runner-level incidents.
		poolReg = cchunter.NewMetricsRegistry()
	}

	var pending []runner.Job
	for _, fig := range figures {
		figOpts := opts
		if regs != nil {
			reg := cchunter.NewMetricsRegistry()
			regs[fig.ID] = reg
			figOpts.Metrics = reg
		}
		job := runner.Job{
			Name: "fig" + fig.ID,
			Run: func(uint64) (interface{}, error) {
				if bench == nil {
					return fig.Run(figOpts), nil
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				out := fig.Run(figOpts)
				ns := time.Since(t0).Nanoseconds()
				runtime.ReadMemStats(&m1)
				// Allocations and metrics are the first run's. Repeats
				// skip the figure's registry, so -metrics-out still
				// counts one run.
				repeat := figOpts
				repeat.Metrics = nil
				for i := 1; i < benchRuns; i++ {
					t0 := time.Now()
					fig.Run(repeat)
					ns = min(ns, time.Since(t0).Nanoseconds())
				}
				bench.Figures = append(bench.Figures, experiments.BenchFigure{
					ID:      fig.ID,
					NS:      ns,
					Allocs:  m1.Mallocs - m0.Mallocs,
					Bytes:   m1.TotalAlloc - m0.TotalAlloc,
					Metrics: out.Metrics,
				})
				return out, nil
			},
		}
		if reg := regs[fig.ID]; reg != nil {
			job.Stages = reg.StageTimes
		}
		pending = append(pending, job)
	}

	flushMetrics := func() {
		if regs == nil {
			return
		}
		snaps := make(map[string]*cchunter.MetricsSnapshot, len(figures)+1)
		for _, fig := range figures {
			snaps["fig"+fig.ID] = regs[fig.ID].Snapshot()
		}
		if poolReg != nil {
			snaps["runner"] = poolReg.Snapshot()
		}
		buf, err := json.MarshalIndent(snaps, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics report: %s (%d figures)\n", *metricsOut, len(figures))
	}

	start := time.Now()
	pool := runner.Pool{
		Workers:    *jobs,
		OnProgress: progressLine,
		Watchdog:   *watchdog,
		Recover:    *watchdog > 0,
		Metrics:    poolReg,
	}
	results, err := pool.Run(*seed, pending)
	if len(pending) > 0 {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		// Name every failed figure, then flush whatever supervision
		// counters accumulated so the post-mortem has the incident tally.
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "ccrepro: %s failed: %v\n", r.Name, r.Err)
			}
		}
		flushMetrics()
		fatal(err)
	}

	for _, r := range results {
		out := r.Value.(experiments.Output)
		fmt.Println(out.Summary)
		fmt.Println()
		err := out.WriteCSVs(func(file string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(*outDir, file))
		})
		if err != nil {
			fatal(err)
		}
	}

	flushMetrics()
	if bench != nil {
		f, err := os.Create(*benchOut)
		if err != nil {
			fatal(err)
		}
		if err := experiments.WriteBenchReport(f, *bench); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("bench report: %s (%d figures, calibration %dns)\n",
			*benchOut, len(bench.Figures), bench.CalibrationNS)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *verbose {
		fmt.Printf("timing (%d workers):\n", *jobs)
		var busy time.Duration
		for _, r := range results {
			busy += r.Elapsed
			fmt.Printf("  %-6s %8s  worker %d\n", r.Name, r.Elapsed.Round(time.Millisecond), r.Worker)
		}
		wall := time.Since(start)
		fmt.Printf("  total  %8s  wall %s (%.1f× concurrency)\n",
			busy.Round(time.Millisecond), wall.Round(time.Millisecond),
			float64(busy)/float64(wall))
	}
}

// progressLine keeps one live status line on stderr: jobs done/total,
// elapsed time, a uniform-cost ETA, and — when the job carried a
// metrics registry — where the finished figure spent its time.
func progressLine(p runner.Progress) {
	line := fmt.Sprintf("[%d/%d] %s elapsed, eta %s — %s (%s)",
		p.Done, p.Total,
		p.Elapsed.Round(time.Second), p.ETA.Round(time.Second),
		p.Last.Name, p.Last.Elapsed.Round(time.Millisecond))
	if len(p.Last.Stages) > 0 {
		var parts []string
		for _, name := range obs.TopStages(p.Last.Stages, 2) {
			parts = append(parts, fmt.Sprintf("%s %s", name, p.Last.Stages[name].Round(time.Millisecond)))
		}
		line += " [" + strings.Join(parts, " ") + "]"
	}
	fmt.Fprintf(os.Stderr, "\r%-78s", line)
}

// selectFigures resolves the -fig list to rows of experiments.Figures,
// in table order: "all" selects every row, and an unknown id is an
// error naming the valid ones.
func selectFigures(spec string) ([]experiments.Figure, error) {
	if spec == "all" {
		return experiments.Figures, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if _, ok := experiments.LookupFigure(id); !ok {
			var valid []string
			for _, f := range experiments.Figures {
				valid = append(valid, f.ID)
			}
			return nil, fmt.Errorf("unknown figure id %q (valid: %s, or all)", id, strings.Join(valid, " "))
		}
		want[id] = true
	}
	var out []experiments.Figure
	for _, f := range experiments.Figures {
		if want[f.ID] {
			out = append(out, f)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccrepro:", err)
	os.Exit(1)
}
