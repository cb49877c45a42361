package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// benchFleetConfig is the fleet the committed BENCH_pipeline.json
// numbers come from: 1,024 streams across 128 hosts and 8 tenants, the
// daemon's default queue depth, covert traffic on every fourth stream.
func benchFleetConfig() Config {
	return Config{
		Hosts:          128,
		StreamsPerHost: 8,
		Tenants:        8,
		EpochQuanta:    8,
		InterimEvery:   4,
		QueueLen:       64,
		CovertEvery:    4,
		SplitPair:      true,
		Seed:           1,
	}
}

// BenchmarkFleetPipeline drives the full cchuntd pipeline — sources,
// bounded ingest queues, sharded streaming detectors, hub aggregation
// — over ≥1,000 streams and reports end-to-end throughput as
// processed events (produced minus shed) per wall-clock second, and
// heap bytes allocated per stream-epoch (fleet construction included).
// Set FLEET_BENCH_OUT=path to also write the machine-readable report
// that BENCH_pipeline.json pins; a relative path lands in the package
// directory, so regenerate it from the repository root with:
//
//	FLEET_BENCH_OUT=$PWD/BENCH_pipeline.json \
//	  go test -run NONE -bench BenchmarkFleetPipeline -benchtime 3x -cpu 1 ./internal/fleet/
func BenchmarkFleetPipeline(b *testing.B) {
	cfg := benchFleetConfig()
	var produced, shed, finals uint64
	var lastState State
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Run(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
		st := f.Hub().State()
		for _, ten := range st.Tenants {
			produced += ten.Produced
			shed += ten.Shed
		}
		finals += st.Finals
		lastState = st
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)

	elapsed := b.Elapsed().Seconds()
	processed := produced - shed
	eventsPerSec := float64(processed) / elapsed
	allocPerStreamEpoch := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N*cfg.Hosts*cfg.StreamsPerHost)
	b.ReportMetric(eventsPerSec, "events/sec")
	b.ReportMetric(float64(cfg.Hosts*cfg.StreamsPerHost), "streams")
	b.ReportMetric(float64(shed)/float64(b.N), "shed/op")
	b.ReportMetric(allocPerStreamEpoch, "B/stream-epoch")

	if want := uint64(b.N * cfg.Hosts * cfg.StreamsPerHost); finals != want {
		b.Fatalf("finals = %d, want %d — a stream missed its verdict", finals, want)
	}

	if out := os.Getenv("FLEET_BENCH_OUT"); out != "" {
		writeFleetBench(b, out, cfg, lastState, processed, shed, eventsPerSec, allocPerStreamEpoch)
	}
}

// fleetBenchDoc is the committed BENCH_pipeline.json schema.
type fleetBenchDoc struct {
	Schema       string                 `json:"schema"`
	GoVersion    string                 `json:"go_version"`
	GOMAXPROCS   int                    `json:"gomaxprocs"`
	Hosts        int                    `json:"hosts"`
	Streams      int                    `json:"streams"`
	Tenants      int                    `json:"tenants"`
	EpochQuanta  int                    `json:"epoch_quanta"`
	QueueLen     int                    `json:"queue_len"`
	Processed    uint64                 `json:"processed_events"`
	Shed         uint64                 `json:"shed_events"`
	EventsPerSec float64                `json:"events_per_sec"`
	AllocPerSE   float64                `json:"alloc_bytes_per_stream_epoch"`
	TenantStats  map[string]TenantStats `json:"tenant_stats"`
	Detected     int                    `json:"detected_streams"`
	Correlations int                    `json:"correlations"`
}

func writeFleetBench(b *testing.B, path string, cfg Config, st State, processed, shed uint64, eps, allocPerSE float64) {
	b.Helper()
	doc := fleetBenchDoc{
		Schema:       "cchunter-fleet-bench/1",
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Hosts:        cfg.Hosts,
		Streams:      cfg.Hosts * cfg.StreamsPerHost,
		Tenants:      cfg.Tenants,
		EpochQuanta:  cfg.EpochQuanta,
		QueueLen:     cfg.QueueLen,
		Processed:    processed,
		Shed:         shed,
		EventsPerSec: eps,
		AllocPerSE:   allocPerSE,
		TenantStats:  st.Tenants,
		Detected:     st.DetectedStreams,
		Correlations: len(st.Correlations),
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHubSubmit isolates the hub's per-verdict cost: dedupe
// fingerprinting plus state materialization, the work every interim in
// the fleet funnels through.
func BenchmarkHubSubmit(b *testing.B) {
	h := NewHub(nil)
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = Key{
			Host:    fmt.Sprintf("host-%03d", i/8),
			Tenant:  fmt.Sprintf("tenant-%02d", i%8),
			Stream:  i % 8,
			Channel: "bus",
		}
	}
	rep := detectedReport(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		h.Submit(Update{Key: k, Seq: uint64(i/len(keys) + 1), Report: rep})
	}
}

// BenchmarkCorrelate isolates the cross-host correlation scan at fleet
// scale with an adversarially high detected-stream count.
func BenchmarkCorrelate(b *testing.B) {
	streams := make(map[Key]*StreamState, 1024)
	for i := 0; i < 1024; i++ {
		k := Key{
			Host:    fmt.Sprintf("host-%03d", i/8),
			Tenant:  fmt.Sprintf("tenant-%02d", i%8),
			Stream:  i % 8,
			Channel: "cache",
		}
		streams[k] = &StreamState{
			Key:      k,
			Detected: i%4 == 0, // 256 detected streams
			PeakLag:  128 + (i%11)*64,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n += len(correlateLocked(streams))
	}
	if n == 0 {
		b.Fatal("correlation scan found nothing")
	}
}
