package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"cchunter"
	"cchunter/internal/fleet"
)

// ReferenceSchema versions the committed reference documents.
const ReferenceSchema = "cchunter-perfbench-reference/1"

// SimCounts names the registry counts the reference pins: those of a
// traced Scenario.Run, plus the windows its streaming flight replay
// closes. They are simulated quantities: a change that only speeds up
// the host must leave every one of them identical.
var SimCounts = []string{
	"sim.ops",
	"sim.ctx_switches",
	"auditor.events",
	"auditor.conflicts.recorded",
	"auditor.conflicts.deduped",
	"detect.windows",
	"stream.windows_closed",
}

// CellRef is one scenario's pinned outcome.
type CellRef struct {
	Name string `json:"name"`
	// Verdict is the SHA-256 of the scenario's golden-corpus
	// serialization (see Verdict).
	Verdict string `json:"verdict"`
	// Detected, BitErrors and EndCycle restate part of the verdict in
	// readable form, for diagnosing a mismatch.
	Detected  bool   `json:"detected"`
	BitErrors int    `json:"bit_errors"`
	EndCycle  uint64 `json:"end_cycle"`
	// Counts are the SimCounts of the traced run.
	Counts map[string]uint64 `json:"counts"`
}

// FleetRef is the fleet workload's pinned outcome for one host count.
type FleetRef struct {
	Hosts  int    `json:"hosts"`
	Epochs int    `json:"epochs"`
	Finals uint64 `json:"finals"`
	// Streams maps each stream key to its last final verdict
	// (see StreamVerdict).
	Streams map[string]string `json:"streams"`
	// Correlations is the SHA-256 of the hub's correlation list, and
	// CorrelationCount its length.
	Correlations     string `json:"correlations"`
	CorrelationCount int    `json:"correlation_count"`
}

// Reference is one seed's committed document.
type Reference struct {
	Schema    string    `json:"schema"`
	Seed      uint64    `json:"seed"`
	Frontier  []CellRef `json:"frontier"`
	BenignMix []CellRef `json:"benign_mix"`
	Fleet     *FleetRef `json:"fleet"`
}

// Cells returns the pinned cells of a scenario workload, or nil.
func (r *Reference) Cells(workload string) []CellRef {
	if r == nil {
		return nil
	}
	switch workload {
	case Frontier:
		return r.Frontier
	case BenignMix:
		return r.BenignMix
	}
	return nil
}

// ReferencePath is where seed's reference lives under dir.
func ReferencePath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

// LoadReference reads seed's reference from dir. A missing file yields
// (nil, nil): the run then checks that its paths agree instead.
func LoadReference(dir string, seed uint64) (*Reference, error) {
	buf, err := os.ReadFile(ReferencePath(dir, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var ref Reference
	if err := json.Unmarshal(buf, &ref); err != nil {
		return nil, fmt.Errorf("parsing reference %s: %w", ReferencePath(dir, seed), err)
	}
	if ref.Schema != ReferenceSchema || ref.Seed != seed {
		return nil, fmt.Errorf("reference %s: schema %q seed %d, want %q seed %d",
			ReferencePath(dir, seed), ref.Schema, ref.Seed, ReferenceSchema, seed)
	}
	return &ref, nil
}

// WriteReference stores ref under dir.
func WriteReference(dir string, ref *Reference) error {
	buf, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(ReferencePath(dir, ref.Seed), append(buf, '\n'), 0o644)
}

// goldenDoc is the golden-corpus serialization of a scenario result:
// the report with its metrics snapshot stripped, plus the channel's
// sent and decoded bits, bit errors and simulated length.
type goldenDoc struct {
	Report        cchunter.Report `json:"report"`
	Sent          []int           `json:"sent,omitempty"`
	Decoded       []int           `json:"decoded,omitempty"`
	BitErrors     int             `json:"bit_errors"`
	EndCycle      uint64          `json:"end_cycle"`
	QuantumCycles uint64          `json:"quantum_cycles"`
}

// Verdict fingerprints a scenario result: the SHA-256 of its golden-
// corpus serialization, byte-compatible with testdata/golden.
func Verdict(res *cchunter.Result) (string, error) {
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
		return "", fmt.Errorf("serializing verdict: %w", err)
	}
	sum := sha256.Sum256(append(buf, '\n'))
	return hex.EncodeToString(sum[:]), nil
}

// CellRefOf pins a result (and, when non-nil, its traced counts).
func CellRefOf(name string, res *cchunter.Result, counts map[string]uint64) (CellRef, error) {
	v, err := Verdict(res)
	if err != nil {
		return CellRef{}, err
	}
	return CellRef{
		Name:      name,
		Verdict:   v,
		Detected:  res.Report.Detected,
		BitErrors: res.BitErrors,
		EndCycle:  res.EndCycle,
		Counts:    counts,
	}, nil
}

// CountsOf extracts the SimCounts from a registry snapshot.
func CountsOf(snap *cchunter.MetricsSnapshot) map[string]uint64 {
	out := make(map[string]uint64, len(SimCounts))
	if snap == nil {
		return out
	}
	for _, name := range SimCounts {
		if v, ok := snap.Counters[name]; ok {
			out[name] = v
		} else if g, ok := snap.Gauges[name]; ok && g >= 0 {
			out[name] = uint64(g)
		}
	}
	return out
}

// StreamVerdict renders a stream's last final verdict: detection,
// confidence (exact), failure text and oscillation peak lag.
func StreamVerdict(st fleet.StreamState) string {
	return fmt.Sprintf("%t %s %q %d", st.Detected,
		strconv.FormatFloat(st.Confidence, 'g', -1, 64), st.Failure, st.PeakLag)
}

// FleetRefOf pins a fleet's final state. Backlog gauges and interim
// counts depend on goroutine timing and are left out.
func FleetRefOf(hosts, epochs int, st fleet.State) (*FleetRef, error) {
	ref := &FleetRef{
		Hosts:            hosts,
		Epochs:           epochs,
		Finals:           st.Finals,
		Streams:          make(map[string]string, len(st.Streams)),
		CorrelationCount: len(st.Correlations),
	}
	for _, s := range st.Streams {
		ref.Streams[s.Key.String()] = StreamVerdict(s)
	}
	buf, err := json.Marshal(st.Correlations)
	if err != nil {
		return nil, fmt.Errorf("serializing correlations: %w", err)
	}
	sum := sha256.Sum256(buf)
	ref.Correlations = hex.EncodeToString(sum[:])
	return ref, nil
}

// CompareFleet counts the operations of got that differ from want: one
// per stream whose final verdict differs or is missing, plus one each
// for a wrong final count and a wrong correlation list. The mismatching
// stream keys come back sorted, for the report.
func CompareFleet(want, got *FleetRef) (failed int, diffs []string) {
	for key, v := range want.Streams {
		if got.Streams[key] != v {
			failed++
			diffs = append(diffs, fmt.Sprintf("%s: got %q want %q", key, got.Streams[key], v))
		}
	}
	for key := range got.Streams {
		if _, ok := want.Streams[key]; !ok {
			failed++
			diffs = append(diffs, key+": not in reference")
		}
	}
	if got.Finals != want.Finals {
		failed++
		diffs = append(diffs, fmt.Sprintf("finals: got %d want %d", got.Finals, want.Finals))
	}
	if got.Correlations != want.Correlations {
		failed++
		diffs = append(diffs, fmt.Sprintf("correlations: got %d (%.12s) want %d (%.12s)",
			got.CorrelationCount, got.Correlations, want.CorrelationCount, want.Correlations))
	}
	sort.Strings(diffs)
	return failed, diffs
}

// CompareCell reports why got differs from want, or "" when it matches.
// Only the counts got carries are compared.
func CompareCell(want, got CellRef) string {
	if want.Name != got.Name {
		return fmt.Sprintf("cell %q, reference has %q", got.Name, want.Name)
	}
	if want.Verdict != got.Verdict {
		return fmt.Sprintf("%s: verdict %.12s (detected=%t bit_errors=%d end=%d), reference %.12s (detected=%t bit_errors=%d end=%d)",
			got.Name, got.Verdict, got.Detected, got.BitErrors, got.EndCycle,
			want.Verdict, want.Detected, want.BitErrors, want.EndCycle)
	}
	for _, name := range SimCounts {
		if v, ok := got.Counts[name]; ok && v != want.Counts[name] {
			return fmt.Sprintf("%s: %s = %d, reference %d", got.Name, name, v, want.Counts[name])
		}
	}
	return ""
}

// BuildReference runs every workload once at seed, traced, and pins
// the outcome. The fleet part is pinned for the given host count.
func BuildReference(seed uint64, hosts int) (*Reference, error) {
	ref := &Reference{Schema: ReferenceSchema, Seed: seed}
	for _, w := range []struct {
		cells []Cell
		dst   *[]CellRef
	}{{FrontierCells(seed), &ref.Frontier}, {BenignCells(seed), &ref.BenignMix}} {
		for _, c := range w.cells {
			var sp spans
			tc, diff, err := traceCell(c, &sp)
			if err != nil {
				return nil, err
			}
			if diff != "" {
				return nil, fmt.Errorf("refusing to pin %s: %s", c.Name, diff)
			}
			*w.dst = append(*w.dst, tc.ref)
		}
	}
	fr, err := runFleet(FleetConfig(seed, hosts))
	if err != nil {
		return nil, err
	}
	if fr.shed > 0 {
		return nil, fmt.Errorf("refusing to pin a fleet that shed %d events", fr.shed)
	}
	if ref.Fleet, err = FleetRefOf(hosts, fleetEpochs, fr.final); err != nil {
		return nil, err
	}
	return ref, nil
}
