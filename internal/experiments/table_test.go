package experiments

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFigureTable checks the table's invariants: unique ids, and ids
// that match the ccrepro -fig row of docs/OPERATIONS.md both ways.
func TestFigureTable(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range Figures {
		if ids[f.ID] {
			t.Errorf("figure id %q declared twice", f.ID)
		}
		ids[f.ID] = true
		if got, ok := LookupFigure(f.ID); !ok || got.ID != f.ID {
			t.Errorf("LookupFigure(%q) = %v, %v", f.ID, got.ID, ok)
		}
	}
	if _, ok := LookupFigure("9"); ok {
		t.Error("LookupFigure found a figure 9, which the paper does not have")
	}

	documented := docFigureIDs(t)
	for id := range ids {
		if !documented[id] {
			t.Errorf("figure %q is missing from the -fig row of docs/OPERATIONS.md", id)
		}
	}
	for id := range documented {
		if !ids[id] {
			t.Errorf("docs/OPERATIONS.md -fig row lists %q, which is not in Figures", id)
		}
	}
}

// docFigureIDs returns the backticked ids in the meaning column of the
// ccrepro -fig row of docs/OPERATIONS.md, apart from "all".
func docFigureIDs(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	tick := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| `-fig` |") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("malformed -fig row: %s", line)
		}
		out := map[string]bool{}
		for _, m := range tick.FindAllStringSubmatch(cells[3], -1) {
			if m[1] != "all" {
				out[m[1]] = true
			}
		}
		return out
	}
	t.Fatal("docs/OPERATIONS.md has no -fig row")
	return nil
}

// TestFigureOutputs runs every row once at a small scale and checks
// what ccrepro would write: a summary, CSV file names unique across
// the whole table, and finite -bench-out metrics.
func TestFigureOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure")
	}
	o := Options{Seed: 1, TimeScale: 400, MessageBits: 16, Messages: 2, Quanta: 4}
	files := map[string]string{}
	claim := func(id, name string) {
		if prev, ok := files[name]; ok {
			t.Errorf("figures %s and %s both write %s.csv", prev, id, name)
		}
		files[name] = id
	}
	for _, f := range Figures {
		out := f.Run(o)
		if out.Summary == "" {
			t.Errorf("figure %s: empty summary", f.ID)
		}
		for _, s := range out.Series {
			claim(f.ID, s.Name)
		}
		for _, tr := range out.Trains {
			claim(f.ID, tr.Name)
			if tr.Train == nil {
				t.Errorf("figure %s: train %s is nil", f.ID, tr.Name)
			}
		}
		if len(out.Metrics) == 0 {
			t.Errorf("figure %s: no metrics", f.ID)
		}
		for k, v := range out.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("figure %s: metric %s = %v", f.ID, k, v)
			}
		}
	}
}
