package cchunter

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from current detector output")

// goldenDoc is the serialized verdict pinned by the regression corpus:
// the full report plus the channel-reliability facts a behavior change
// would disturb. Metrics is stripped before serialization — the corpus
// pins detection behavior, and the observability layer must never
// change it.
type goldenDoc struct {
	Report        Report `json:"report"`
	Sent          []int  `json:"sent,omitempty"`
	Decoded       []int  `json:"decoded,omitempty"`
	BitErrors     int    `json:"bit_errors"`
	EndCycle      uint64 `json:"end_cycle"`
	QuantumCycles uint64 `json:"quantum_cycles"`
}

// goldenMarshal freezes a run's verdict as indented JSON with the
// metrics snapshot removed.
func goldenMarshal(t *testing.T, res *Result) []byte {
	t.Helper()
	doc := goldenDoc{
		Report:        res.Report,
		Sent:          res.Sent,
		Decoded:       res.Decoded,
		BitErrors:     res.BitErrors,
		EndCycle:      res.EndCycle,
		QuantumCycles: res.QuantumCycles,
	}
	doc.Report.Metrics = nil
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden doc: %v", err)
	}
	return append(buf, '\n')
}

// goldenCases is the regression corpus: one scenario per covert
// channel plus a benign workload mix. Shared with
// TestScenarioRunLeavesNoGoroutines, which runs the same corpus plain,
// streaming, supervised and flight-recorded.
func goldenCases() []struct {
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

// TestGoldenVerdicts pins the detector's verdicts for the goldenCases
// corpus against files under testdata/golden/. Each scenario runs
// twice — once bare and once with a metrics registry attached — and
// both runs must serialize to the same bytes: instrumentation is
// observational only. Regenerate the corpus after an intentional
// detector change with
//
//	go test -run TestGoldenVerdicts -update .
func TestGoldenVerdicts(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			bare := tc.sc
			res, err := bare.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := goldenMarshal(t, res)

			instrumented := tc.sc
			instrumented.Metrics = NewMetricsRegistry()
			resM, err := instrumented.Run()
			if err != nil {
				t.Fatal(err)
			}
			if resM.Report.Metrics == nil {
				t.Fatal("instrumented run carries no metrics snapshot")
			}
			if gotM := goldenMarshal(t, resM); !bytes.Equal(got, gotM) {
				t.Errorf("verdict differs with metrics enabled:\nbare:\n%s\ninstrumented:\n%s", got, gotM)
			}

			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("verdict drifted from %s (regenerate with -update if intentional)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}
