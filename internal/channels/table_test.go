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

// TestCacheRowRejectsNoSets: the cache row sizes its prime/probe rounds
// by the set count, so a zero or negative CacheSets must fail with a
// message that names it, not with an integer division by zero.
func TestCacheRowRejectsNoSets(t *testing.T) {
	spec, ok := Lookup("cache")
	if !ok {
		t.Fatal("no cache row")
	}
	const want = "channels: cache channel needs CacheSets > 0"
	for _, sets := range []int{0, -1} {
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Errorf("CacheSets %d: panic %v, want %q", sets, r, want)
				}
			}()
			spec.New(Params{Protocol: Protocol{Message: []int{1}, BPS: 100}, CacheSets: sets})
		}()
	}
}
