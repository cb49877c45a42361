package cchunter

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"cchunter/internal/auditor"
	"cchunter/internal/channels"
)

// streamCases are the golden-corpus scenarios, the same configurations
// TestGoldenVerdicts pins, reused to prove streaming equivalence on
// every channel type plus the benign mix.
func streamCases() []struct {
	name string
	sc   Scenario
} {
	return []struct {
		name string
		sc   Scenario
	}{
		{"bus", Scenario{
			Channel:       ChannelMemoryBus,
			BandwidthBPS:  1000,
			Message:       RandomMessage(16, 3),
			QuantumCycles: testQuantum,
			Seed:          3,
		}},
		{"divider", Scenario{
			Channel:       ChannelIntegerDivider,
			BandwidthBPS:  1000,
			Message:       RandomMessage(12, 5),
			QuantumCycles: testQuantum,
			Seed:          5,
		}},
		{"cache", Scenario{
			Channel:       ChannelSharedCache,
			BandwidthBPS:  1000,
			Message:       RandomMessage(10, 7),
			CacheSets:     256,
			QuantumCycles: 25_000_000,
			Seed:          7,
		}},
		{"ring", Scenario{
			Channel:       ChannelRingInterconnect,
			BandwidthBPS:  1000,
			Message:       RandomMessage(12, 9),
			QuantumCycles: testQuantum,
			Seed:          9,
		}},
		{"tlb", Scenario{
			Channel:       ChannelTLB,
			BandwidthBPS:  1000,
			Message:       RandomMessage(16, 13),
			QuantumCycles: testQuantum,
			Seed:          13,
		}},
		{"benign", Scenario{
			Channel:        ChannelNone,
			Workloads:      []string{"gobmk", "sjeng", "bzip2", "h264ref"},
			DurationQuanta: 8,
			QuantumCycles:  testQuantum,
		}},
	}
}

// TestStreamingMatchesBatchGolden is the tentpole equivalence gate:
// across the golden corpus, a streaming run's verdict — rendered
// incrementally with bounded memory — must serialize byte-identically
// to the batch verdict once the streaming-only evidence block is
// stripped. The batch side is additionally pinned against the
// committed golden files, so equivalence is anchored to the corpus,
// not merely to whatever the batch path currently produces.
func TestStreamingMatchesBatchGolden(t *testing.T) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			batch := tc.sc
			resB, err := batch.Run()
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := goldenMarshal(t, resB)

			streamed := tc.sc
			streamed.Stream = true
			resS, err := streamed.Run()
			if err != nil {
				t.Fatal(err)
			}
			if resS.Report.Streaming == nil {
				t.Fatal("streaming run carries no Streaming info")
			}
			// Only the cache channel reliably fills the conflict train;
			// bus/divider runs may close only empty windows.
			if tc.name == "cache" && resS.Report.Streaming.WindowsAnalyzed == 0 {
				t.Error("streaming cache run analyzed no observation windows")
			}
			resS.Report.Streaming = nil
			gotBytes := goldenMarshal(t, resS)
			if !bytes.Equal(wantBytes, gotBytes) {
				t.Errorf("streaming verdict differs from batch\nbatch:\n%s\nstream:\n%s",
					wantBytes, gotBytes)
			}

			want, err := readGolden(tc.name)
			if err != nil {
				t.Fatalf("read golden file: %v", err)
			}
			if !bytes.Equal(gotBytes, want) {
				t.Errorf("streaming verdict drifted from pinned corpus %s.json", tc.name)
			}
		})
	}
}

func readGolden(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
}

// TestStreamingMatchesBatchUnderFaults repeats the equivalence check
// on a degraded sensor path — dropped events, timestamp jitter,
// context corruption — where the auditor's clamping and dedup logic
// does real work. The streaming drain points must not change what the
// auditor records.
func TestStreamingMatchesBatchUnderFaults(t *testing.T) {
	base := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       RandomMessage(16, 11),
		QuantumCycles: testQuantum,
		Seed:          11,
		Faults: FaultConfig{
			DropProb:     0.05,
			JitterCycles: 500,
			ReorderProb:  0.02,
			CtxFlipProb:  0.01,
			Seed:         11,
		},
	}
	batch := base
	resB, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	streamed := base
	streamed.Stream = true
	resS, err := streamed.Run()
	if err != nil {
		t.Fatal(err)
	}
	resS.Report.Streaming = nil
	gotB, gotS := goldenMarshal(t, resB), goldenMarshal(t, resS)
	if !bytes.Equal(gotB, gotS) {
		t.Errorf("fault-injected streaming verdict differs from batch\nbatch:\n%s\nstream:\n%s", gotB, gotS)
	}
}

// TestStreamingOnsetReported checks the change detectors surface a
// channel onset on a mid-run covert channel: the trojan stays silent
// for the first startQuanta quanta, so the CUSUM learns a benign
// baseline and then must localize where the likelihood-ratio series
// changed — at or after the channel's actual start, never before the
// alarm, never past the run end.
func TestStreamingOnsetReported(t *testing.T) {
	const startQuanta = 12
	sc := Scenario{
		Channel:            ChannelMemoryBus,
		BandwidthBPS:       1000,
		Message:            RandomMessage(16, 3),
		QuantumCycles:      testQuantum,
		Seed:               3,
		Stream:             true,
		ChannelStartQuanta: startQuanta,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	info := res.Report.Streaming
	if info == nil {
		t.Fatal("no streaming info")
	}
	fired := false
	for _, o := range info.Onsets {
		if !o.Detected {
			continue
		}
		fired = true
		if o.OnsetCycle > o.FiredCycle {
			t.Errorf("%s onset %d after alarm %d", o.Kind, o.OnsetCycle, o.FiredCycle)
		}
		if o.FiredCycle > res.EndCycle {
			t.Errorf("%s alarm at %d beyond run end %d", o.Kind, o.FiredCycle, res.EndCycle)
		}
	}
	if !fired {
		t.Error("delayed bus covert run fired no onset detector")
	}
	if o := res.Report.Onset(EventBusLock); o != nil && o.Detected {
		// The channel was silent before startQuanta; the estimated
		// onset must not point into the benign prefix (one quantum of
		// slack for the slot straddling the boundary).
		if o.OnsetCycle+testQuantum < startQuanta*testQuantum {
			t.Errorf("bus onset %d points into the benign prefix (channel started at %d)",
				o.OnsetCycle, startQuanta*testQuantum)
		}
	}
}

// TestScenarioWatchdogDegraded pins the supervision contract: an
// analysis stage that exceeds its watchdog yields a degraded verdict
// (Failure set, zero confidence, no detection claim) while the run
// itself completes without error.
func TestScenarioWatchdogDegraded(t *testing.T) {
	sc := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       RandomMessage(8, 3),
		QuantumCycles: testQuantum,
		Seed:          3,
		Watchdog:      time.Nanosecond, // no analysis finishes in 1ns
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatalf("watchdog overrun must not fail the run: %v", err)
	}
	if !res.Report.Failed() {
		t.Fatal("overrun analysis did not produce a degraded verdict")
	}
	if res.Report.Detected {
		t.Error("degraded verdict claims a detection")
	}
	if res.Report.Confidence != 0 {
		t.Errorf("degraded verdict confidence = %v, want 0", res.Report.Confidence)
	}
}

// TestScenarioWatchdogGenerous checks the complementary case: a
// watchdog wide enough for the analysis leaves the verdict
// byte-identical to an unsupervised run.
func TestScenarioWatchdogGenerous(t *testing.T) {
	base := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       RandomMessage(8, 3),
		QuantumCycles: testQuantum,
		Seed:          3,
	}
	resPlain, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	guarded := base
	guarded.Watchdog = time.Minute
	resGuarded, err := guarded.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, b := goldenMarshal(t, resPlain), goldenMarshal(t, resGuarded)
	if !bytes.Equal(a, b) {
		t.Error("supervised verdict differs from unsupervised")
	}
}

// TestFlightReplayDeterministic pins the flight recorder for every row
// of the channel table: a capture of the full run replays to the live
// verdict, replaying twice gives the same bytes, the file roundtrip
// preserves the flight, and the streaming replay agrees with the batch
// replay. The flight names its monitoring pair exactly when the row's
// pair is not the classic one, so pre-existing flights keep replaying.
func TestFlightReplayDeterministic(t *testing.T) {
	cases := map[Channel]Scenario{}
	for _, tc := range streamCases() {
		cases[tc.sc.Channel] = tc.sc
	}
	for _, row := range channels.Table {
		t.Run(row.Name, func(t *testing.T) {
			sc, ok := cases[Channel(row.Name)]
			if !ok {
				t.Fatalf("streamCases has no %s scenario", row.Name)
			}
			sc.FlightEvents = 1 << 21 // hold the whole run: replay == live verdict
			flightReplaysLive(t, sc, row.Monitor)
		})
	}
}

// flightReplaysLive runs sc, whose channel's row monitors monitor, and
// checks its flight as TestFlightReplayDeterministic describes.
func flightReplaysLive(t *testing.T, sc Scenario, monitor auditor.Pair) {
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flight == nil {
		t.Fatal("armed recorder produced no flight")
	}
	if res.Flight.Truncated {
		t.Fatalf("flight truncated at %d events; raise the test capacity", len(res.Flight.Events))
	}
	if res.Flight.Reason != "detection" {
		t.Errorf("flight reason = %q, want detection", res.Flight.Reason)
	}
	if kinds := res.Flight.Meta.Kinds; monitor == auditor.ClassicPair {
		if kinds != nil {
			t.Errorf("classic-pair flight names its kinds %v; want them implicit", kinds)
		}
	} else if !slices.Equal(kinds, monitor[:]) {
		t.Errorf("flight kinds = %v, want %v", kinds, monitor)
	}

	marshal := func(r Report) []byte {
		r.Metrics = nil
		r.Streaming = nil
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	rep1, err := ReplayFlight(*res.Flight)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := ReplayFlight(*res.Flight)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(rep1), marshal(rep2)) {
		t.Error("two replays of the same flight differ")
	}
	if !bytes.Equal(marshal(rep1), marshal(res.Report)) {
		t.Errorf("replay differs from live verdict\nlive:\n%s\nreplay:\n%s",
			marshal(res.Report), marshal(rep1))
	}

	repS, err := ReplayFlightStreaming(*res.Flight)
	if err != nil {
		t.Fatal(err)
	}
	if repS.Streaming == nil {
		t.Error("streaming replay carries no Streaming info")
	}
	if !bytes.Equal(marshal(repS), marshal(rep1)) {
		t.Error("streaming replay verdict differs from batch replay")
	}

	path := filepath.Join(t.TempDir(), "flight.json")
	if err := res.Flight.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFlight(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Events) != len(res.Flight.Events) {
		t.Fatalf("roundtrip lost events: %d != %d", len(loaded.Events), len(res.Flight.Events))
	}
	rep3, err := ReplayFlight(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(rep3), marshal(rep1)) {
		t.Error("replay of the roundtripped flight differs")
	}
}
