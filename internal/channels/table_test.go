package channels

import (
	"testing"

	"cchunter/internal/sim"
)

// TestChannelTable checks the channel table's invariants on the default
// machine: unique names that Lookup finds, distinct pins that exist,
// every burst channel's indicator in its monitoring pair, and the
// benign-workload layout the golden corpus pins (first free core
// 2/1/2/2/1).
func TestChannelTable(t *testing.T) {
	cfg := sim.DefaultConfig()
	wantFree := map[string]int{"bus": 2, "divider": 1, "cache": 2, "ring": 2, "tlb": 1}
	if len(Table) != len(wantFree) {
		t.Fatalf("table has %d rows, want %d", len(Table), len(wantFree))
	}
	seen := map[string]bool{}
	for _, s := range Table {
		if seen[s.Name] {
			t.Errorf("channel %q declared twice", s.Name)
		}
		seen[s.Name] = true
		if got, ok := Lookup(s.Name); !ok || got.Name != s.Name {
			t.Errorf("Lookup(%q) = %q, %v", s.Name, got.Name, ok)
		}
		if s.TrojanCtx == s.SpyCtx {
			t.Errorf("%s: trojan and spy share context %d", s.Name, s.SpyCtx)
		}
		for _, ctx := range []int{s.TrojanCtx, s.SpyCtx} {
			if ctx < 0 || ctx >= cfg.Contexts() {
				t.Errorf("%s: context %d outside the machine's %d", s.Name, ctx, cfg.Contexts())
			}
		}
		if !s.Oscillatory() && s.Indicator != s.Monitor[0] && s.Indicator != s.Monitor[1] {
			t.Errorf("%s: indicator %v not in monitoring pair %v", s.Name, s.Indicator, s.Monitor)
		}
		want, ok := wantFree[s.Name]
		if !ok {
			t.Errorf("unexpected channel %q", s.Name)
		} else if got := s.FirstFreeCore(cfg.ThreadsPerCore); got != want {
			t.Errorf("%s: first free core %d, want %d", s.Name, got, want)
		}
	}
	if _, ok := Lookup("none"); ok {
		t.Error(`"none" is a scenario without a channel, not a table row`)
	}
}
