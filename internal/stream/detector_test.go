package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cchunter/internal/auditor"
	"cchunter/internal/core"
	"cchunter/internal/trace"
)

const testQuantum = 100_000

// newAuditor programs a fresh auditor the way a scenario run does:
// both combinational units plus the conflict-miss tracker.
func newAuditor(t testing.TB, quantum uint64) *auditor.Auditor {
	t.Helper()
	aud, err := auditor.New(auditor.DefaultConfig(quantum))
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.Monitor(trace.KindBusLock, core.DeltaTBus); err != nil {
		t.Fatal(err)
	}
	if err := aud.Monitor(trace.KindDivContention, core.DeltaTDivider); err != nil {
		t.Fatal(err)
	}
	if err := aud.MonitorConflicts(); err != nil {
		t.Fatal(err)
	}
	return aud
}

// splitmix is the deterministic RNG all synthetic trains draw from.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// synthTrain builds a mixed indicator-event train over the given
// number of quanta: bursty bus locks in alternating quanta, sparse
// divider contention, and a periodically oscillating conflict-miss
// pattern — enough structure to drive every analysis stage.
func synthTrain(seed uint64, quanta int, quantum uint64) []trace.Event {
	rng := splitmix(seed)
	var events []trace.Event
	var cycle uint64
	end := uint64(quanta) * quantum
	for cycle < end {
		cycle += 200 + rng.next()%1800
		q := cycle / quantum
		r := rng.next()
		switch {
		case q%2 == 0 && r%5 < 2: // bus burst quanta
			events = append(events, trace.Event{
				Cycle: cycle, Kind: trace.KindBusLock,
				Actor: uint8(r % 4),
			})
		case r%7 == 0:
			events = append(events, trace.Event{
				Cycle: cycle, Kind: trace.KindDivContention,
				Actor: uint8(r % 4), Victim: uint8((r >> 8) % 4),
			})
		case r%3 == 0: // oscillating conflicts: ~4k-cycle period
			phase := (cycle / 2000) % 2
			events = append(events, trace.Event{
				Cycle: cycle, Kind: trace.KindConflictMiss,
				Actor: uint8(phase), Victim: uint8(1 - phase),
				Unit: uint32(r % 64),
			})
		}
	}
	return events
}

// perturb applies sensor-style faults to a train: drops, bounded
// timestamp jitter (breaking monotonicity), and depth-one reordering.
// The result is what a degraded event path would deliver — both
// detectors must agree on it.
func perturb(events []trace.Event, seed uint64) []trace.Event {
	rng := splitmix(seed)
	out := make([]trace.Event, 0, len(events))
	for _, e := range events {
		r := rng.next()
		if r%20 == 0 { // 5% drop
			continue
		}
		if j := r % 7; j < 3 && e.Cycle > 500 {
			e.Cycle += (r>>8)%1000 - 500
		}
		out = append(out, e)
	}
	// Depth-one reordering.
	for i := 0; i+1 < len(out); i += 17 {
		out[i], out[i+1] = out[i+1], out[i]
	}
	return out
}

// batchReport renders the batch verdict over a train.
func batchReport(t testing.TB, events []trace.Event, cfg core.DetectorConfig, end uint64, chunk int) core.Report {
	t.Helper()
	aud := newAuditor(t, cfg.QuantumCycles)
	for i := 0; i < len(events); i += chunk {
		j := i + chunk
		if j > len(events) {
			j = len(events)
		}
		aud.OnEvents(events[i:j])
	}
	det := core.NewDetector(aud, cfg)
	rep := det.Analyze(end)
	det.Release()
	return rep
}

// streamReport renders the streaming verdict over the same train,
// optionally polling Interim along the way.
func streamReport(t testing.TB, events []trace.Event, scfg Config, end uint64, chunk int, pollInterim bool) core.Report {
	t.Helper()
	aud := newAuditor(t, scfg.Detector.QuantumCycles)
	d := New(aud, scfg)
	for i := 0; i < len(events); i += chunk {
		j := i + chunk
		if j > len(events) {
			j = len(events)
		}
		d.OnEvents(events[i:j])
		if pollInterim && (i/chunk)%5 == 0 {
			_ = d.Interim(events[j-1].Cycle)
		}
	}
	return d.Finalize(end)
}

// marshalVerdict strips the streaming-only block and freezes the rest.
func marshalVerdict(t testing.TB, rep core.Report) []byte {
	t.Helper()
	rep.Streaming = nil
	rep.Metrics = nil
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestStreamingEquivalenceSynthetic sweeps chunk sizes and divisors
// over clean and fault-perturbed trains: the streaming verdict must
// match the batch verdict byte for byte in every combination, and
// polling Interim mid-run must not perturb the final verdict.
func TestStreamingEquivalenceSynthetic(t *testing.T) {
	const quanta = 40
	end := uint64(quanta) * testQuantum
	for _, tc := range []struct {
		name    string
		seed    uint64
		faulty  bool
		divisor int
		chunk   int
		interim bool
		window  int // WindowQuanta; 0 keeps the default
	}{
		{name: "clean-chunk1", seed: 1, chunk: 1},
		{name: "clean-chunk64", seed: 1, chunk: 64},
		{name: "clean-divisor4", seed: 2, divisor: 4, chunk: 32},
		{name: "faulty", seed: 3, faulty: true, chunk: 32},
		{name: "faulty-divisor2", seed: 4, faulty: true, divisor: 2, chunk: 7},
		{name: "interim-polling", seed: 5, chunk: 32, interim: true},
		{name: "faulty-interim", seed: 6, faulty: true, chunk: 13, interim: true},
		// A ring shorter than the run evicts, and the auditor's later
		// quantum rolls reuse the evicted histograms.
		{name: "sliding-window", seed: 7, chunk: 32, interim: true, window: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := synthTrain(tc.seed, quanta, testQuantum)
			if tc.faulty {
				events = perturb(events, tc.seed+100)
			}
			cfg := core.DefaultDetectorConfig(testQuantum, 4)
			if tc.divisor > 0 {
				cfg.ObservationDivisor = tc.divisor
			}
			if tc.window > 0 {
				cfg.WindowQuanta = tc.window
			}
			want := marshalVerdict(t, batchReport(t, events, cfg, end, tc.chunk))
			got := marshalVerdict(t, streamReport(t, events, Config{Detector: cfg}, end, tc.chunk, tc.interim))
			if !bytes.Equal(want, got) {
				t.Errorf("streaming verdict differs from batch\nbatch:  %s\nstream: %s", want, got)
			}
		})
	}
}

// TestStreamingBoundedRetention: with RetainWindows set, the Windows
// slice is capped but every verdict field — detection decision, best
// window, counts, degradation — matches the unbounded run.
func TestStreamingBoundedRetention(t *testing.T) {
	const quanta = 40
	end := uint64(quanta) * testQuantum
	events := synthTrain(9, quanta, testQuantum)
	cfg := core.DefaultDetectorConfig(testQuantum, 4)
	cfg.ObservationDivisor = 4

	full := streamReport(t, events, Config{Detector: cfg}, end, 32, false)
	bounded := streamReport(t, events, Config{Detector: cfg, RetainWindows: 3}, end, 32, false)

	if full.Oscillation == nil || bounded.Oscillation == nil {
		t.Fatal("missing oscillation verdicts")
	}
	if n := len(bounded.Oscillation.Windows); n > 3 {
		t.Errorf("bounded run retained %d windows, cap is 3", n)
	}
	if len(full.Oscillation.Windows) <= 3 {
		t.Skip("train too sparse to exceed the retention bound")
	}
	// The retained tail must be the suffix of the full list.
	fw, bw := full.Oscillation.Windows, bounded.Oscillation.Windows
	for i := range bw {
		want, _ := json.Marshal(fw[len(fw)-len(bw)+i])
		got, _ := json.Marshal(bw[i])
		if !bytes.Equal(want, got) {
			t.Errorf("retained window %d is not the full run's suffix", i)
		}
	}
	full.Oscillation.Windows, bounded.Oscillation.Windows = nil, nil
	a, b := marshalVerdict(t, full), marshalVerdict(t, bounded)
	if !bytes.Equal(a, b) {
		t.Errorf("bounded retention changed verdict fields\nfull:    %s\nbounded: %s", a, b)
	}
}

// TestStreamingInfoShape sanity-checks the evidence block itself.
func TestStreamingInfoShape(t *testing.T) {
	const quanta = 20
	end := uint64(quanta) * testQuantum
	events := synthTrain(11, quanta, testQuantum)
	cfg := core.DefaultDetectorConfig(testQuantum, 4)
	aud := newAuditor(t, testQuantum)
	d := New(aud, Config{Detector: cfg})
	d.OnEvents(events)
	d.SetShed(17)
	rep := d.Finalize(end)
	info := rep.Streaming
	if info == nil {
		t.Fatal("no streaming info")
	}
	if info.Quanta == 0 {
		t.Error("no quanta drained")
	}
	if info.EventsShed != 17 {
		t.Errorf("events shed = %d, want 17", info.EventsShed)
	}
	if info.PeakRetainedEvents == 0 {
		t.Error("peak retained events never tracked")
	}
	// One onset per monitored kind plus the conflict peak series.
	if len(info.Onsets) != 3 {
		t.Fatalf("got %d onset reports, want 3", len(info.Onsets))
	}
	kinds := map[trace.Kind]bool{}
	for _, o := range info.Onsets {
		kinds[o.Kind] = true
	}
	for _, k := range []trace.Kind{trace.KindBusLock, trace.KindDivContention, trace.KindConflictMiss} {
		if !kinds[k] {
			t.Errorf("no onset report for %s", k)
		}
	}
	if rep.Onset(trace.KindBusLock) == nil {
		t.Error("Report.Onset lookup failed for bus-lock")
	}
}

// TestFinalizeContextCancelled: a done context — a watchdog that fired
// — stops Finalize's window loop, and the daemon hands back a degraded
// placeholder instead of a verdict.
func TestFinalizeContextCancelled(t *testing.T) {
	const quanta = 20
	events := synthTrain(11, quanta, testQuantum)
	d := New(newAuditor(t, testQuantum), Config{Detector: core.DefaultDetectorConfig(testQuantum, 4)})
	d.OnEvents(events[:len(events)/2]) // leaves windows for Finalize to close
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := d.FinalizeContext(ctx, uint64(quanta)*testQuantum)
	if !rep.Failed() || rep.Detected || rep.Confidence != 0 {
		t.Errorf("cancelled finalize rendered %+v, want a degraded placeholder", rep)
	}
}

// TestInterimOpenWindowMatchesExact: Interim analyzes the still-open
// observation window with the same exact correlogram a closed window
// gets, so its best analysis equals core.AnalyzeOscillation over the
// recorded events up to the interim cycle. Both windows carry a couple
// that alternates direction every phase events under 25% noise. The
// sparse one holds 500 events; the dense one holds more than 4096, and
// its second harmonic lies past the correlogram's lag 1000.
func TestInterimOpenWindowMatchesExact(t *testing.T) {
	const quantum = 2_000_000
	for _, tc := range []struct {
		name   string
		events int
		gap    uint64
		phase  int
	}{
		{name: "sparse", events: 500, gap: 3000, phase: 50},
		{name: "dense", events: 5000, gap: 300, phase: 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := splitmix(uint64(tc.events))
			var events []trace.Event
			for i := 0; i < tc.events; i++ {
				e := trace.Event{Cycle: uint64(i+1) * tc.gap, Kind: trace.KindConflictMiss, Unit: uint32(i % 256)}
				if r := rng.next(); r%4 == 0 { // interleaved noise from other contexts
					e.Actor, e.Victim = uint8(2+(r>>8)%4), uint8(2+(r>>16)%4)
				} else if (i/tc.phase)%2 == 0 {
					e.Actor, e.Victim = 0, 1
				} else {
					e.Actor, e.Victim = 1, 0
				}
				events = append(events, e)
			}
			cycle := events[len(events)-1].Cycle
			if cycle >= quantum {
				t.Fatalf("train ends at %d, past the open window", cycle)
			}
			aud := newAuditor(t, quantum)
			d := New(aud, Config{Detector: core.DefaultDetectorConfig(quantum, 4)})
			d.OnEvents(events)
			rep := d.Interim(cycle)
			open := aud.ConflictTrain().Window(0, cycle+1)
			if open.Len() < tc.events*9/10 {
				t.Fatalf("open window holds %d of %d events", open.Len(), tc.events)
			}
			ws := core.BorrowWorkspace()
			exact := core.AnalyzeOscillation(open, core.DefaultOscillationConfig(), ws)
			ws.Release()
			if !exact.Detected {
				t.Fatalf("fixture carries no detectable oscillation: lag %d, %d harmonics", exact.FundamentalLag, exact.Harmonics)
			}
			want, err := json.Marshal(exact)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rep.Oscillation.Best)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("interim best differs from the exact analysis of its %d open events\ninterim: %.300s\nexact:   %.300s", open.Len(), got, want)
			}
			d.Finalize(quantum)
		})
	}
}
