package bench

import (
	"context"
	"fmt"
	"time"

	"cchunter"
	"cchunter/internal/fleet"
)

// fleetRun is one pass of the fleet workload.
type fleetRun struct {
	wall     time.Duration // Run plus the final Hub.State
	state    time.Duration // the final Hub.State alone
	final    fleet.State
	produced uint64
	shed     uint64
	flights  []fleet.CapturedFlight
}

// runFleet builds and runs one fleet; building is not timed.
func runFleet(cfg fleet.Config) (fleetRun, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return fleetRun{}, err
	}
	var out fleetRun
	t := time.Now()
	if err := f.Run(context.Background(), fleetEpochs); err != nil {
		return out, err
	}
	t2 := time.Now()
	out.final = f.Hub().State()
	out.state = time.Since(t2)
	out.wall = time.Since(t)
	for _, ten := range out.final.Tenants {
		out.produced += ten.Produced
		out.shed += ten.Shed
	}
	out.flights = f.Flights()
	return out, nil
}

// fleetOps tallies one fleet pass: one operation per stream-epoch
// final, failed per mismatching stream (see CompareFleet), plus a
// failure for any shed event or degraded final.
func (r *Run) fleetOps(cfg fleet.Config, fr fleetRun, want *FleetRef) (*FleetRef, error) {
	got, err := FleetRefOf(cfg.Hosts, fleetEpochs, fr.final)
	if err != nil {
		return nil, err
	}
	ops := cfg.Hosts * cfg.StreamsPerHost * fleetEpochs
	failed, diffs := 0, []string(nil)
	if want != nil {
		failed, diffs = CompareFleet(want, got)
	}
	if fr.shed > 0 {
		failed++
		diffs = append(diffs, fmt.Sprintf("%d events shed", fr.shed))
	}
	for _, s := range fr.final.Streams {
		if s.Failure != "" {
			failed++
			diffs = append(diffs, s.Key.String()+": degraded final: "+s.Failure)
		}
	}
	r.ops(ops, failed, diffs)
	return got, nil
}

// fleetFlightsAgree replays every captured flight through both public
// replay paths: each must be a detection (flights are captured only on
// detection), the two replays must agree, and a stream detected in
// every epoch must replay its last flight to the hub's final verdict.
func fleetFlightsAgree(fr fleetRun) []string {
	var diffs []string
	last := map[string]cchunter.Flight{}
	for _, cf := range fr.flights {
		key := cf.Key.String()
		if cf.Flight.Truncated {
			diffs = append(diffs, key+": flight truncated")
			continue
		}
		batch, err := cchunter.ReplayFlight(cf.Flight)
		if err != nil {
			diffs = append(diffs, key+": "+err.Error())
			continue
		}
		streaming, err := cchunter.ReplayFlightStreaming(cf.Flight)
		if err != nil {
			diffs = append(diffs, key+": "+err.Error())
			continue
		}
		if !sameVerdict(batch, streaming) || !batch.Detected {
			diffs = append(diffs, key+": flight replays disagree or miss the detection")
		}
		last[key] = cf.Flight
	}
	for _, st := range fr.final.Streams {
		f, ok := last[st.Key.String()]
		if !ok || st.DetectedEpochs != fleetEpochs {
			continue
		}
		rep, err := cchunter.ReplayFlightStreaming(f)
		if err != nil {
			continue // reported above
		}
		replayed := fleet.StreamState{Detected: rep.Detected, Confidence: rep.Confidence, Failure: rep.Failure}
		if osc := rep.Oscillation; osc != nil && osc.Detected {
			replayed.PeakLag = osc.Best.FundamentalLag
		}
		if StreamVerdict(replayed) != StreamVerdict(st) {
			diffs = append(diffs, st.Key.String()+": replayed final differs from the hub")
		}
	}
	return diffs
}

// fleet runs the fleet workload.
func (r *Run) fleet() error {
	o := r.opt
	cfg := FleetConfig(o.Seed, o.Hosts)
	if q := FleetMaxBatchesPerEpoch(cfg); cfg.QueueLen < q {
		return fmt.Errorf("fleet queue %d below the %d entries one epoch can enqueue", cfg.QueueLen, q)
	}
	var want *FleetRef
	if o.Reference != nil && o.Reference.Fleet != nil && o.Reference.Fleet.Hosts == o.Hosts &&
		o.Reference.Fleet.Epochs == fleetEpochs {
		want = o.Reference.Fleet
	}
	if o.Trace {
		return r.fleetTraced(cfg, want)
	}
	r.set("setup_s", setupSeconds(setupReps, func() {
		if _, err := fleet.New(cfg); err != nil {
			panic(err) // FleetConfig is static; New cannot reject it
		}
	}), "s")

	// Timed passes, each against the reference kernel on one lane per
	// host (see calibrate.go), sized from an untimed warm-up pass.
	c0 := cpuTime()
	if _, err := runFleet(cfg); err != nil {
		return err
	}
	cal := newCalibrator(cfg.Hosts)
	units := cal.unitsFor((cpuTime() - c0).Seconds() / float64(cfg.Hosts))
	var walls, refs, raws, allocs []float64
	var first *FleetRef
	var processed uint64
	dl := newDeadline(o.Seconds)
	for pass := 0; dl.more(pass); pass++ {
		var fr fleetRun
		var alloc uint64
		ref, raw, err := cal.measure(units, func() error {
			a0 := heapAllocs()
			var err error
			fr, err = runFleet(cfg)
			alloc = heapAllocs() - a0
			return err
		})
		if err != nil {
			return err
		}
		against := want
		if against == nil {
			against = first
		}
		got, err := r.fleetOps(cfg, fr, against)
		if err != nil {
			return err
		}
		if first == nil {
			first = got
		}
		walls = append(walls, fr.wall.Seconds())
		refs = append(refs, ref)
		raws = append(raws, raw)
		allocs = append(allocs, float64(alloc))
		processed = fr.produced - fr.shed
		r.logf("fleet pass %d: %.3fs, %d events, %d shed", pass, fr.wall.Seconds(), fr.produced, fr.shed)
	}
	streamCycles := uint64(cfg.Hosts*cfg.StreamsPerHost*fleetEpochs*cfg.EpochQuanta) * cfg.Quantum
	if want != nil {
		r.check("reference: stream finals, final count and correlations against seed-%d reference (%d hosts)", o.Seed, o.Hosts)
	} else {
		// Path agreement: a flight-armed pass must reproduce the timed
		// passes' state, and its flights must replay to the hub's
		// verdicts through both public replay paths.
		armed := cfg
		armed.FlightEvents = fleetFlightEvents
		fr, err := runFleet(armed)
		if err != nil {
			return err
		}
		if _, err := r.fleetOps(cfg, fr, first); err != nil {
			return err
		}
		for _, d := range fleetFlightsAgree(fr) {
			r.op(d)
		}
		r.check("paths: no %d-host reference for seed %d; flight replays checked against the hub's finals", o.Hosts, o.Seed)
	}
	r.check("determinism: every pass reproduces the first pass's stream finals and correlations")
	r.check("no-shed: queue %d >= %d entries per epoch", cfg.QueueLen, FleetMaxBatchesPerEpoch(cfg))

	cpu := median(refs)
	r.logf("fleet: %.3f reference s, %.3f CPU s, %.3f wall s per pass", cpu, median(raws), median(walls))
	r.set("norm_cpu_s", cpu, "s")
	r.set("sim_mcycles_per_norm_s", float64(streamCycles)/1e6/cpu, "Mcycles/s")
	r.set("events_per_norm_s", float64(processed)/cpu, "events/s")
	r.set("alloc_mb", median(allocs)/1e6, "MB")
	return nil
}

// fleetTraced is the fleet's traced run: untraced passes (the overhead
// baseline) alternate with instrumented, flight-armed, profiled passes
// whose flights are replayed through timed layer calls.
func (r *Run) fleetTraced(cfg fleet.Config, want *FleetRef) error {
	o := r.opt
	fromRef := want != nil
	samples := LayerSamples{}
	var untraced, runs, states, onEvents, analyze, streamReplay []float64
	var snap *cchunter.MetricsSnapshot
	replayCounts := map[string]uint64{}
	var shed, produced uint64
	dl := newDeadline(o.Seconds)
	for pass := 0; dl.more(pass); pass++ {
		base, err := runFleet(cfg)
		if err != nil {
			return err
		}
		got, err := r.fleetOps(cfg, base, want)
		if err != nil {
			return err
		}
		if want == nil {
			want = got
		}
		untraced = append(untraced, base.wall.Seconds())

		traced := cfg
		reg := cchunter.NewMetricsRegistry()
		traced.Metrics = reg
		traced.FlightEvents = fleetFlightEvents
		var fr fleetRun
		err = profiled(samples, func() error {
			var err error
			fr, err = runFleet(traced)
			return err
		})
		if err != nil {
			return err
		}
		if _, err := r.fleetOps(cfg, fr, want); err != nil {
			return err
		}
		var sp spans
		rreg := cchunter.NewMetricsRegistry()
		var windows uint64
		for _, cf := range fr.flights {
			if cf.Flight.Truncated {
				r.op(cf.Key.String() + ": flight truncated")
				continue
			}
			batch, streaming, w, err := replayTimed(cf.Flight, rreg, &sp)
			if err != nil {
				return err
			}
			windows += w
			diff := ""
			if !sameVerdict(batch, streaming) || !batch.Detected {
				diff = cf.Key.String() + ": flight replays disagree or miss the detection"
			}
			r.op(diff)
		}
		if pass == 0 {
			snap = reg.Snapshot()
			rs := rreg.Snapshot()
			for _, name := range []string{"auditor.events", "auditor.conflicts.recorded", "auditor.conflicts.deduped", "detect.windows"} {
				replayCounts[name] = rs.Counters[name]
			}
			replayCounts["stream.windows_closed"] = windows
			produced, shed = fr.produced, fr.shed
		}
		runs = append(runs, (fr.wall - fr.state).Seconds())
		states = append(states, fr.state.Seconds())
		onEvents = append(onEvents, sp.onEvents.Seconds())
		analyze = append(analyze, sp.analyze.Seconds())
		streamReplay = append(streamReplay, sp.streamReplay.Seconds())
		r.logf("fleet traced pass %d: %.3fs, %d flights", pass, fr.wall.Seconds(), len(fr.flights))
	}
	if fromRef {
		r.check("reference: traced stream finals against seed-%d reference (%d hosts)", o.Seed, o.Hosts)
	} else {
		r.check("paths: no %d-host reference for seed %d; traced stream finals checked against an untraced pass", o.Hosts, o.Seed)
	}
	r.check("replay: every captured flight replays to a detection through the batch and streaming paths")

	r.setShares(samples)
	run := median(runs)
	r.set("fleet.run_s", run, "s")
	r.set("fleet.hub_state_s", median(states), "s")
	r.set("auditor.on_events_s", median(onEvents), "s")
	r.set("core.analyze_s", median(analyze), "s")
	r.set("stream.replay_s", median(streamReplay), "s")
	r.set("scenario.run_s", 0, "s")
	r.set("sim.ops_per_s", 0, "1/s")
	for _, name := range SimCounts {
		r.set(name, float64(replayCounts[name]), "count")
	}
	r.setDedup(replayCounts["auditor.conflicts.recorded"], replayCounts["auditor.conflicts.deduped"])
	for _, name := range []string{"fleet.hub.updates", "fleet.hub.deduped", "fleet.hub.finals"} {
		r.set(name, float64(snap.Counters[name]), "count")
	}
	r.set("wall_s", median(untraced), "s")
	r.set("trace.overhead_frac", (median(runs)+median(states))/median(untraced)-1, "ratio")
	r.set("shed_frac", float64(shed)/float64(max(produced, 1)), "ratio")
	r.setErrorFrac()
	return nil
}
