package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"time"

	"cchunter"
	"cchunter/internal/auditor"
	"cchunter/internal/core"
	"cchunter/internal/stream"
	"cchunter/internal/trace"
)

// setupReps is how many times set-up is timed for its median; the
// median keeps the garbage collections that land in a few of them out.
const setupReps = 101

// defaultFlightEvents sizes the flight ring of a scenario run; it holds
// the largest frontier cell (the ring baseline, ~1.3M events). A run
// that still truncates is repeated with a ring that fits.
const defaultFlightEvents = 1 << 21

// scenarios runs a scenario workload.
func (r *Run) scenarios(build func(uint64) []Cell) error {
	o := r.opt
	cells := build(o.Seed)
	ref := o.Reference.Cells(o.Workload)
	if o.Reference != nil && len(ref) != len(cells) {
		return fmt.Errorf("reference has %d %s cells, workload has %d", len(ref), o.Workload, len(cells))
	}
	if o.Trace {
		return r.scenariosTraced(cells, ref)
	}
	r.set("setup_s", setupSeconds(setupReps, func() { build(o.Seed) }), "s")

	// Check pass (untimed, also the warm-up): instrumented, so the
	// simulated counts can be compared, and flight-armed when there is
	// no reference, so the replay paths can be compared instead.
	pinned := make([]CellRef, len(cells))
	checkCPU := make([]float64, len(cells))
	var ops uint64
	for i, c := range cells {
		sc := c.Scenario
		sc.Metrics = cchunter.NewMetricsRegistry()
		if ref == nil {
			sc.FlightEvents = defaultFlightEvents
		}
		c0 := cpuTime()
		res, err := runComplete(sc)
		checkCPU[i] = (cpuTime() - c0).Seconds()
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		counts := CountsOf(res.Report.Metrics)
		delete(counts, "stream.windows_closed") // only a streaming replay closes windows
		ops += counts["sim.ops"]
		got, err := CellRefOf(c.Name, res, counts)
		if err != nil {
			return err
		}
		pinned[i] = got
		diff := expect(o.Workload, res)
		if diff == "" && ref != nil {
			diff = CompareCell(ref[i], got)
		}
		if diff == "" && ref == nil {
			diff = replayAgrees(c.Name, res)
		}
		r.op(diff)
	}
	if ref != nil {
		r.check("reference: check pass verdicts and simulated counts against seed-%d reference", o.Seed)
	} else {
		r.check("paths: no reference for seed %d; Scenario.Run verdicts checked against ReplayFlight and ReplayFlightStreaming", o.Seed)
	}
	r.check("determinism: every timed pass is byte-identical to the instrumented check pass")

	// Timed passes. Each cell is timed against the reference kernel
	// (see calibrate.go), and its time is its median over the passes,
	// so a burst of host noise during one pass moves only that pass's
	// sample.
	cal := newCalibrator(1)
	units := make([]int, len(cells))
	for i := range cells {
		units[i] = cal.unitsFor(checkCPU[i])
	}
	cellRef := make([][]float64, len(cells))
	cellRaw := make([][]float64, len(cells))
	var allocs []float64
	var cycles uint64
	dl := newDeadline(o.Seconds)
	for pass := 0; dl.more(pass); pass++ {
		var alloc uint64
		var passRef, passRaw float64
		cycles = 0
		for i, c := range cells {
			var res *cchunter.Result
			ref, raw, err := cal.measure(units[i], func() error {
				a0 := heapAllocs()
				var err error
				res, err = c.Scenario.Run()
				alloc += heapAllocs() - a0
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
			cellRef[i] = append(cellRef[i], ref)
			cellRaw[i] = append(cellRaw[i], raw)
			passRef += ref
			passRaw += raw
			cycles += res.EndCycle
			v, err := Verdict(res)
			if err != nil {
				return err
			}
			diff := ""
			if v != pinned[i].Verdict {
				diff = fmt.Sprintf("%s: pass %d verdict %.12s differs from check pass %.12s", c.Name, pass, v, pinned[i].Verdict)
			}
			r.op(diff)
		}
		allocs = append(allocs, float64(alloc))
		r.logf("%s pass %d: %.3f reference s, %.3f CPU s, done at %.3fs", o.Workload, pass, passRef, passRaw, dl.elapsed().Seconds())
	}
	var cpu, raw float64
	for i := range cells {
		cpu += median(cellRef[i])
		raw += median(cellRaw[i])
	}
	r.logf("%s: %.3f reference s, %.3f CPU s per pass", o.Workload, cpu, raw)
	r.set("norm_cpu_s", cpu, "s")
	r.set("sim_mcycles_per_norm_s", float64(cycles)/1e6/cpu, "Mcycles/s")
	r.set("events_per_norm_s", float64(ops)/cpu, "events/s")
	r.set("alloc_mb", median(allocs)/1e6, "MB")
	return nil
}

// expect applies the workload's own verdict expectations: no run may
// fail its analysis, and no benign mix may raise an alarm.
func expect(workload string, res *cchunter.Result) string {
	if res.Report.Failed() {
		return "degraded report: " + res.Report.Failure
	}
	if workload == BenignMix && res.Report.Detected {
		return "benign mix detected as a covert channel"
	}
	return ""
}

// runComplete runs sc; when its flight recorder is armed and the
// flight came back truncated, it reruns with a ring that holds the
// whole run, so replays see every event.
func runComplete(sc cchunter.Scenario) (*cchunter.Result, error) {
	for {
		if sc.Metrics != nil {
			sc.Metrics = cchunter.NewMetricsRegistry() // counts must not add up across attempts
		}
		res, err := sc.Run()
		if err != nil || res.Flight == nil || !res.Flight.Truncated {
			return res, err
		}
		sc.FlightEvents = 2 * (len(res.Flight.Events) + int(res.Flight.Dropped))
	}
}

// sameVerdict reports whether two reports render the same verdict,
// ignoring what legitimately differs between a live run and a replay:
// the metrics snapshot and the streaming evidence block.
func sameVerdict(a, b cchunter.Report) bool {
	a.Metrics, a.Streaming = nil, nil
	b.Metrics, b.Streaming = nil, nil
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// replayAgrees checks a flight-armed result against both public replay
// paths; "" means all three verdicts agree.
func replayAgrees(name string, res *cchunter.Result) string {
	batch, err := cchunter.ReplayFlight(*res.Flight)
	if err != nil {
		return fmt.Sprintf("%s: ReplayFlight: %v", name, err)
	}
	streaming, err := cchunter.ReplayFlightStreaming(*res.Flight)
	if err != nil {
		return fmt.Sprintf("%s: ReplayFlightStreaming: %v", name, err)
	}
	switch {
	case !sameVerdict(batch, res.Report):
		return name + ": ReplayFlight verdict differs from Scenario.Run"
	case !sameVerdict(streaming, res.Report):
		return name + ": ReplayFlightStreaming verdict differs from Scenario.Run"
	}
	return ""
}

// spans accumulates the traced run's timings around calls into layers.
type spans struct {
	onEvents, analyze, streamReplay time.Duration
}

// profileLabel marks the traced run's own replay work, which the CPU
// attribution leaves out: the shares describe the measured system run.
const profileLabel = "perfbench.phase"

// rebuild wires a fresh auditor and detector configuration for a
// flight, as a scenario run or fleet shard would.
func rebuild(f cchunter.Flight, reg *cchunter.MetricsRegistry) (*auditor.Auditor, core.DetectorConfig, uint64, error) {
	aud, err := auditor.New(auditor.DefaultConfig(f.Meta.QuantumCycles))
	if err != nil {
		return nil, core.DetectorConfig{}, 0, err
	}
	kinds := f.Meta.Kinds
	if len(kinds) == 0 {
		kinds = []trace.Kind{trace.KindBusLock, trace.KindDivContention}
	}
	for _, k := range kinds {
		if err := aud.Monitor(k, core.DefaultDeltaT(k)); err != nil {
			return nil, core.DetectorConfig{}, 0, err
		}
	}
	if err := aud.MonitorConflicts(); err != nil {
		return nil, core.DetectorConfig{}, 0, err
	}
	aud.Instrument(reg)
	contexts := f.Meta.Contexts
	if contexts <= 0 {
		contexts = 8
	}
	cfg := core.DefaultDetectorConfig(f.Meta.QuantumCycles, contexts)
	cfg.ObservationDivisor = f.Meta.ObservationDivisor
	cfg.Metrics = reg
	end := f.Meta.EndCycle
	if end == 0 && len(f.Events) > 0 {
		end = f.Events[len(f.Events)-1].Cycle + 1
	}
	return aud, cfg, end, nil
}

// replayTimed replays a flight through a fresh auditor + batch detector
// and then through the streaming detector, timing each layer call. reg
// (may be nil) instruments the batch path; the streaming path records
// into its own registry, whose closed-window count is returned.
func replayTimed(f cchunter.Flight, reg *cchunter.MetricsRegistry, sp *spans) (batch, streaming cchunter.Report, windows uint64, err error) {
	aud, cfg, end, err := rebuild(f, reg)
	if err != nil {
		return batch, streaming, 0, err
	}
	t := time.Now()
	aud.OnEvents(f.Events)
	sp.onEvents += time.Since(t)
	det := core.NewDetector(aud, cfg)
	t = time.Now()
	batch = det.Analyze(end)
	sp.analyze += time.Since(t)
	det.Release()

	sreg := cchunter.NewMetricsRegistry()
	aud, cfg, end, err = rebuild(f, nil)
	if err != nil {
		return batch, streaming, 0, err
	}
	cfg.Metrics = sreg
	t = time.Now()
	sd := stream.New(aud, stream.Config{Detector: cfg})
	sd.SetShed(f.Meta.EventsShed)
	sd.OnEvents(f.Events)
	streaming = sd.Finalize(end)
	sp.streamReplay += time.Since(t)
	return batch, streaming, sreg.Snapshot().Counters["stream.windows_closed"], nil
}

// tracedCell is one cell's traced run: its pinned outcome and the time
// its Scenario.Run took.
type tracedCell struct {
	ref CellRef
	run time.Duration
}

// traceCell runs one cell instrumented and flight-armed, replays the
// flight with timed layer calls (labelled, so the CPU attribution skips
// them), and checks that the replays agree with the live verdict.
func traceCell(c Cell, sp *spans) (tracedCell, string, error) {
	sc := c.Scenario
	sc.Metrics = cchunter.NewMetricsRegistry()
	sc.FlightEvents = defaultFlightEvents
	t := time.Now()
	res, err := sc.Run()
	run := time.Since(t)
	if err != nil {
		return tracedCell{}, "", fmt.Errorf("%s: %w", c.Name, err)
	}
	if res.Flight.Truncated {
		// Rare: rerun with a ring that holds the whole run, untimed
		// by the span (the first attempt's time stands).
		sc.FlightEvents = 2 * (len(res.Flight.Events) + int(res.Flight.Dropped))
		if res, err = runComplete(sc); err != nil {
			return tracedCell{}, "", fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	counts := CountsOf(res.Report.Metrics)
	var diff string
	pprof.Do(context.Background(), pprof.Labels(profileLabel, "replay"), func(context.Context) {
		batch, streaming, windows, rerr := replayTimed(*res.Flight, nil, sp)
		if rerr != nil {
			err = rerr
			return
		}
		counts["stream.windows_closed"] = windows
		switch {
		case !sameVerdict(batch, res.Report):
			diff = c.Name + ": batch replay verdict differs from Scenario.Run"
		case !sameVerdict(streaming, res.Report):
			diff = c.Name + ": streaming replay verdict differs from Scenario.Run"
		}
	})
	if err != nil {
		return tracedCell{}, "", err
	}
	ref, err := CellRefOf(c.Name, res, counts)
	if err != nil {
		return tracedCell{}, "", err
	}
	return tracedCell{ref: ref, run: run}, diff, nil
}

// profiled runs fn under the CPU profiler and attributes its samples.
func profiled(ls LayerSamples, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return ferr
	}
	return ls.Add(buf.Bytes())
}

// scenariosTraced is the traced run of a scenario workload: untraced
// passes (the overhead baseline; the first is also the warm-up)
// alternate with traced passes.
func (r *Run) scenariosTraced(cells []Cell, ref []CellRef) error {
	o := r.opt
	samples := LayerSamples{}
	var untraced, runs, onEvents, analyze, streamReplay, opsRates []float64
	var first []CellRef
	totals := map[string]uint64{}
	dl := newDeadline(o.Seconds)
	for pass := 0; dl.more(pass); pass++ {
		var bare time.Duration
		for _, c := range cells {
			t := time.Now()
			res, err := c.Scenario.Run()
			bare += time.Since(t)
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
			r.op(expect(o.Workload, res))
		}
		untraced = append(untraced, bare.Seconds())

		var sp spans
		var run time.Duration
		var ops uint64
		got := make([]CellRef, len(cells))
		err := profiled(samples, func() error {
			for i, c := range cells {
				tc, diff, err := traceCell(c, &sp)
				if err != nil {
					return err
				}
				got[i] = tc.ref
				run += tc.run
				ops += tc.ref.Counts["sim.ops"]
				switch {
				case ref != nil:
					diff = firstNonEmpty(diff, CompareCell(ref[i], tc.ref))
				case first != nil:
					diff = firstNonEmpty(diff, CompareCell(first[i], tc.ref))
				}
				r.op(diff)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if first == nil {
			first = got
			for _, g := range got {
				for k, v := range g.Counts {
					totals[k] += v
				}
			}
		}
		runs = append(runs, run.Seconds())
		onEvents = append(onEvents, sp.onEvents.Seconds())
		analyze = append(analyze, sp.analyze.Seconds())
		streamReplay = append(streamReplay, sp.streamReplay.Seconds())
		opsRates = append(opsRates, float64(ops)/run.Seconds())
		r.logf("%s traced pass %d: %.3fs", o.Workload, pass, run.Seconds())
	}
	if ref != nil {
		r.check("reference: traced verdicts and simulated counts against seed-%d reference", o.Seed)
	} else {
		r.check("paths: no reference for seed %d; traced passes checked against the first traced pass", o.Seed)
	}
	r.check("replay: every traced verdict equals its batch and streaming flight replays")

	r.setShares(samples)
	run := median(runs)
	r.set("scenario.run_s", run, "s")
	r.set("sim.ops_per_s", median(opsRates), "1/s")
	r.set("auditor.on_events_s", median(onEvents), "s")
	r.set("core.analyze_s", median(analyze), "s")
	r.set("stream.replay_s", median(streamReplay), "s")
	r.set("fleet.run_s", 0, "s")
	r.set("fleet.hub_state_s", 0, "s")
	for _, name := range SimCounts {
		r.set(name, float64(totals[name]), "count")
	}
	r.setDedup(totals["auditor.conflicts.recorded"], totals["auditor.conflicts.deduped"])
	for _, name := range []string{"fleet.hub.updates", "fleet.hub.deduped", "fleet.hub.finals"} {
		r.set(name, 0, "count")
	}
	r.set("wall_s", median(untraced), "s")
	r.set("trace.overhead_frac", run/median(untraced)-1, "ratio")
	r.set("shed_frac", 0, "ratio")
	r.setErrorFrac()
	return nil
}
