package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"cchunter/internal/obs"
)

// testFleetConfig is a small fleet whose queues are sized so nothing
// can shed: verdicts are then a pure function of the seed.
func testFleetConfig() Config {
	return Config{
		Hosts:          4,
		StreamsPerHost: 2,
		Tenants:        2,
		EpochQuanta:    16,
		InterimEvery:   4,
		QueueLen:       256,
		CovertEvery:    4,
		SplitPair:      true,
		Seed:           42,
	}
}

func TestFleetEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testFleetConfig()
	cfg.Metrics = reg
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	st := f.Hub().State()

	if want := cfg.Hosts * cfg.StreamsPerHost; len(st.Streams) != want {
		t.Fatalf("streams = %d, want %d", len(st.Streams), want)
	}
	if want := uint64(cfg.Hosts * cfg.StreamsPerHost * 2); st.Finals != want {
		t.Errorf("finals = %d, want %d (every stream, every epoch)", st.Finals, want)
	}
	for _, s := range st.Streams {
		if s.FinalEpochs != 2 {
			t.Errorf("%s: finalEpochs = %d, want 2", s.Key, s.FinalEpochs)
		}
		if s.Failure != "" {
			t.Errorf("%s: degraded verdict: %s", s.Key, s.Failure)
		}
		if s.EventsShed != 0 {
			t.Errorf("%s: shed %d events with an over-sized queue", s.Key, s.EventsShed)
		}
	}
	if st.Stale != 0 {
		t.Errorf("stale = %d, want 0 (in-order submissions only)", st.Stale)
	}
	if st.DetectedStreams == 0 {
		t.Error("no stream detected despite planted covert sources")
	}
	// Benign streams must stay clean — a fleet that cries wolf on idle
	// hosts is useless.
	for _, s := range st.Streams {
		if s.Key.Channel == "benign" && s.Detected {
			t.Errorf("%s: benign stream detected", s.Key)
		}
	}

	// The split pair: same covert cache signature planted on host-000
	// and host-001, correlated only at the hub.
	var split *Correlation
	for i := range st.Correlations {
		c := &st.Correlations[i]
		hosts := map[string]bool{}
		for _, k := range c.Keys {
			hosts[k.Host] = true
		}
		if c.Channel == "cache" && hosts["host-000"] && hosts["host-001"] {
			split = c
			break
		}
	}
	if split == nil {
		t.Fatalf("split sender/receiver pair not correlated; correlations: %+v", st.Correlations)
	}
	if split.PeakLag == 0 {
		t.Error("cache correlation carries no peak-lag signature")
	}

	// Tenant accounting covers everything produced, with zero shed.
	var produced, shed uint64
	for _, ten := range st.Tenants {
		produced += ten.Produced
		shed += ten.Shed
	}
	if produced == 0 || shed != 0 {
		t.Errorf("tenant accounting: produced %d shed %d, want >0 / 0", produced, shed)
	}
	if got := reg.Snapshot().Counters["stream.events_shed"]; got != 0 {
		t.Errorf("stream.events_shed = %d, want 0", got)
	}
}

// TestFleetDeterministic pins that a fleet's entire final state — every
// verdict, counter, and correlation — is a pure function of its
// configuration: host scheduling must never leak into verdicts. A
// differently seeded fleet runs between the two identical ones, so the
// second A starts from ingest batches, trains and histograms that B
// left dirty in the shared pools; it must still match the first A byte
// for byte.
func TestFleetDeterministic(t *testing.T) {
	run := func(seed uint64) []byte {
		cfg := testFleetConfig()
		cfg.Seed = seed
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(f.Hub().State())
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a := run(42)
	b := run(7)
	again := run(42)
	if string(a) == string(b) {
		t.Fatal("fleets with different seeds rendered identical states; the check cannot see a leak")
	}
	if string(a) != string(again) {
		t.Errorf("two identically-seeded fleet runs diverged:\nrun A:\n%s\nrun A again:\n%s", a, again)
	}
}

// TestFleetEpochAllocationBound pins allocation-flat epochs: once the
// shared pools are warm, a fleet epoch reuses its ingest batches,
// conflict trains and quantum histograms, and what it still allocates
// per stream is the verdict envelope (reports, correlograms, window
// analyses) and the per-epoch ingest queue. Measured on a 2-core
// x86-64 container with Go 1.24: about 50 KB per stream-epoch, against
// about 295 KB when every epoch built its buffers anew. The ceiling
// leaves 2x headroom for a collection emptying the pools mid-run and
// for other core counts, and stays well below the unpooled cost.
func TestFleetEpochAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so pooled buffers are re-made")
	}
	const ceiling = 100 << 10 // bytes per stream-epoch
	const epochs = 8
	cfg := testFleetConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background(), 2); err != nil { // warm the pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perStreamEpoch := (after.TotalAlloc - before.TotalAlloc) / uint64(f.Streams()*epochs)
	t.Logf("%d bytes allocated per stream-epoch", perStreamEpoch)
	if perStreamEpoch > ceiling {
		t.Errorf("a warm fleet allocates %d bytes per stream-epoch, want <= %d", perStreamEpoch, ceiling)
	}
}

// TestFleetCancelFinishesEpoch pins the shutdown contract: cancelling
// the run context ends the fleet after the in-flight epoch, with every
// stream still rendering a final verdict (no torn epochs).
func TestFleetCancelFinishesEpoch(t *testing.T) {
	cfg := testFleetConfig()
	cfg.SplitPair = false
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx, 0) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fleet did not stop after cancellation")
	}
	st := f.Hub().State()
	for _, s := range st.Streams {
		if s.FinalEpochs == 0 {
			t.Errorf("%s: no final verdict before shutdown", s.Key)
		}
		if !s.Final {
			t.Errorf("%s: last applied update was an interim — epoch torn by shutdown", s.Key)
		}
	}
}

// TestFleetFlightCapture pins that detections produce replayable flight
// captures tagged with the stream key.
func TestFleetFlightCapture(t *testing.T) {
	cfg := testFleetConfig()
	cfg.FlightEvents = -1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	flights := f.Flights()
	if len(flights) == 0 {
		t.Fatal("no flights captured despite detections")
	}
	st := f.Hub().State()
	detected := map[string]bool{}
	for _, s := range st.Streams {
		if s.Detected {
			detected[s.Key.String()] = true
		}
	}
	for _, cf := range flights {
		if !detected[cf.Key.String()] {
			t.Errorf("flight for %s but the stream is not detected", cf.Key)
		}
		if len(cf.Flight.Events) == 0 {
			t.Errorf("flight for %s holds no events", cf.Key)
		}
		if cf.Flight.Meta.QuantumCycles == 0 {
			t.Errorf("flight for %s missing quantum metadata", cf.Key)
		}
	}
	// Flights drains: a second call returns nothing.
	if again := f.Flights(); len(again) != 0 {
		t.Errorf("Flights did not drain: %d left", len(again))
	}
}

// TestFleetRepeatedWatchdogFires: every shard's finalize overruns a
// nanosecond watchdog, epoch after epoch. Each final verdict is a
// degraded placeholder and the watchdog counter matches, and no
// abandoned analysis outlives its job: the cancelled finalize stops at
// its next observation window, so once Run returns the goroutine count
// settles back to where it started with no finalize left on any stack.
func TestFleetRepeatedWatchdogFires(t *testing.T) {
	before := runtime.NumGoroutine()
	const epochs = 4
	reg := obs.NewRegistry()
	cfg := testFleetConfig()
	cfg.Watchdog = time.Nanosecond // no finalize completes in 1ns
	cfg.Metrics = reg
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	streams := cfg.Hosts * cfg.StreamsPerHost
	for _, s := range f.Hub().State().Streams {
		if s.FinalEpochs != epochs || !strings.Contains(s.Failure, "watchdog") {
			t.Errorf("%s: %d final epochs, failure %q; want %d watchdog placeholders", s.Key, s.FinalEpochs, s.Failure, epochs)
		}
	}
	if got := reg.Snapshot().Counters["runner.watchdog_fired"]; got != uint64(streams*epochs) {
		t.Errorf("runner.watchdog_fired = %d, want %d", got, streams*epochs)
	}
	deadline := time.Now().Add(5 * time.Second)
	var stacks []byte
	for {
		buf := make([]byte, 1<<20)
		stacks = buf[:runtime.Stack(buf, true)]
		if runtime.NumGoroutine() <= before && !bytes.Contains(stacks, []byte("FinalizeContext")) {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after\n%s", before, runtime.NumGoroutine(), stacks)
}
