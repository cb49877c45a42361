package cchunter

import (
	"reflect"
	"testing"
)

// batchingScenarios are the equivalence corpus: every covert channel,
// faulted-sensor runs (drop and jitter; reorder, duplication and
// context flips), the streaming detector and the flight recorder, so
// the regression covers every event kind, the auditor's slot and
// oscillator paths, a fault-injector stage between batcher and
// listeners, the daemon's drain points and the ring's wrap.
func batchingScenarios() map[string]Scenario {
	return map[string]Scenario{
		"bus": {
			Channel:       ChannelMemoryBus,
			BandwidthBPS:  1000,
			Message:       RandomMessage(16, 3),
			QuantumCycles: testQuantum,
		},
		"divider": {
			Channel:       ChannelIntegerDivider,
			BandwidthBPS:  1000,
			Message:       RandomMessage(16, 4),
			QuantumCycles: testQuantum,
		},
		"cache": {
			Channel:       ChannelSharedCache,
			BandwidthBPS:  1000,
			Message:       RandomMessage(8, 5),
			CacheSets:     256,
			QuantumCycles: testQuantum,
		},
		"ring": {
			Channel:       ChannelRingInterconnect,
			BandwidthBPS:  1000,
			Message:       RandomMessage(12, 9),
			QuantumCycles: testQuantum,
		},
		"tlb": {
			Channel:       ChannelTLB,
			BandwidthBPS:  1000,
			Message:       RandomMessage(16, 13),
			QuantumCycles: testQuantum,
		},
		"bus-faulted": {
			Channel:       ChannelMemoryBus,
			BandwidthBPS:  1000,
			Message:       RandomMessage(16, 3),
			QuantumCycles: testQuantum,
			Faults:        FaultConfig{DropProb: 0.05, JitterCycles: 100, Seed: 9},
			RecordRaw:     true,
		},
		"cache-stream-flight": {
			Channel:       ChannelSharedCache,
			BandwidthBPS:  1000,
			Message:       RandomMessage(8, 5),
			CacheSets:     256,
			QuantumCycles: testQuantum,
			Stream:        true,
			FlightEvents:  256,
		},
		"cache-stream-faulted": {
			Channel:       ChannelSharedCache,
			BandwidthBPS:  1000,
			Message:       RandomMessage(8, 5),
			CacheSets:     256,
			QuantumCycles: testQuantum,
			Stream:        true,
			Faults:        FaultConfig{ReorderProb: 0.05, DupProb: 0.05, CtxFlipProb: 0.02, Seed: 9},
		},
		"bus-reorder-flight": {
			Channel:       ChannelMemoryBus,
			BandwidthBPS:  1000,
			Message:       RandomMessage(16, 3),
			QuantumCycles: testQuantum,
			Faults:        FaultConfig{ReorderProb: 0.05, DupProb: 0.05, Seed: 9},
			FlightEvents:  128,
		},
	}
}

// batchSizes are the delivery batch sizes the equivalence runs
// compare: batches of one (per-event delivery), a prime that
// misaligns with every internal buffer, and the default.
var batchSizes = []int{1, 37, 512}

// runAtBatch runs sc with the given delivery batch size and clears
// the one Result field that depends on where batches end: the
// streaming daemon's retained-event high-water mark (see
// StreamingInfo.PeakRetainedEvents).
func runAtBatch(t *testing.T, sc Scenario, batch int) *Result {
	t.Helper()
	sc.eventBatch = batch
	res, err := sc.Run()
	if err != nil {
		t.Fatalf("batch=%d: %v", batch, err)
	}
	if res.Report.Streaming != nil {
		res.Report.Streaming.PeakRetainedEvents = 0
	}
	return res
}

// TestBatchedDeliveryMatchesPerEvent pins the batched event-delivery
// contract at the whole-pipeline level: a scenario run in batches of
// one event (per-event delivery through the same consumers) and runs
// at a prime batch size and the default must produce deeply equal
// Results: identical verdicts, decoded bits, histograms, trains,
// flights and fault counters. Batching changes when consumers see
// events, never what they see.
func TestBatchedDeliveryMatchesPerEvent(t *testing.T) {
	for name, sc := range batchingScenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := runAtBatch(t, sc, batchSizes[0])
			for _, batch := range batchSizes[1:] {
				got := runAtBatch(t, sc, batch)
				if got.Report.String() != want.Report.String() {
					t.Errorf("batch=%d: report differs:\n%s\nvs per-event:\n%s",
						batch, got.Report, want.Report)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("batch=%d: result differs from per-event run", batch)
				}
			}
		})
	}
}

// BenchmarkScenarioEventDelivery measures the whole pipeline — units,
// fault-free delivery chain, auditor — in batches of one event versus
// the default batch size. The bus channel's lock train plus a
// busy L2 makes event delivery a visible fraction of run time.
func BenchmarkScenarioEventDelivery(b *testing.B) {
	base := Scenario{
		Channel:       ChannelMemoryBus,
		BandwidthBPS:  1000,
		Message:       RandomMessage(32, 3),
		QuantumCycles: testQuantum,
		RecordRaw:     true,
	}
	for _, cfg := range []struct {
		name  string
		batch int
	}{
		{"per-event", 1},
		{"batched", 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			sc := base
			sc.eventBatch = cfg.batch
			for i := 0; i < b.N; i++ {
				res, err := sc.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Report.Detected {
					b.Fatal("bus channel missed")
				}
			}
		})
	}
}
