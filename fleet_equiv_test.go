package cchunter

import (
	"bytes"
	"encoding/json"
	"testing"

	"cchunter/internal/fleet"
)

// TestFleetPathMatchesGoldenCorpus is the fleet daemon's equivalence
// gate: the exact pipeline a cchuntd shard runs — bounded ingest
// queue, batched delivery, streaming detector, epoch finalize — must
// render byte-identical verdicts to the batch detector pinned by
// testdata/golden. Each golden scenario's raw event train is replayed
// through fleet.AnalyzeTrain and the resulting report (minus the
// streaming evidence block, which the batch path never carries) is
// compared against both the scenario's own batch verdict and the
// committed corpus file.
func TestFleetPathMatchesGoldenCorpus(t *testing.T) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			sc.RecordRaw = true
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.RawTrain == nil || res.RawTrain.Len() == 0 {
				t.Fatal("scenario recorded no raw train")
			}

			// The fleet shard must program the same monitoring pair the
			// scenario did, or the ring/tlb events fall on deaf slots.
			cfg, err := tc.sc.normalize()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fleet.AnalyzeTrain(res.RawTrain.Events(),
				res.QuantumCycles, res.Contexts, res.EndCycle, cfg.monitor[:]...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Streaming == nil {
				t.Fatal("fleet path carries no streaming evidence")
			}
			if rep.Streaming.EventsShed != 0 {
				t.Fatalf("fleet path shed %d events with a full-train queue",
					rep.Streaming.EventsShed)
			}
			rep.Streaming = nil
			rep.Metrics = nil

			batchRep := res.Report
			batchRep.Metrics = nil
			want, err := json.MarshalIndent(batchRep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fleet-path verdict differs from batch verdict\nbatch:\n%s\nfleet:\n%s",
					want, got)
			}

			// Anchor to the committed corpus, not just the live batch
			// path: the golden doc's report field must match too.
			goldenRaw, err := readGolden(tc.name)
			if err != nil {
				t.Fatalf("read golden file: %v", err)
			}
			var doc struct {
				Report json.RawMessage `json:"report"`
			}
			if err := json.Unmarshal(goldenRaw, &doc); err != nil {
				t.Fatal(err)
			}
			var pinned Report
			if err := json.Unmarshal(doc.Report, &pinned); err != nil {
				t.Fatal(err)
			}
			pinnedBytes, err := json.MarshalIndent(pinned, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pinnedBytes) {
				t.Errorf("fleet-path verdict drifted from pinned corpus %s.json", tc.name)
			}
		})
	}
}
