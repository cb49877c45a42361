package experiments

import (
	"strings"
	"testing"

	"cchunter/internal/channels"
)

func TestExtMitigation(t *testing.T) {
	if testing.Short() {
		t.Skip("mitigation sweep is slow")
	}
	r := ExtMitigation(Options{Seed: 1, TimeScale: 100, MessageBits: 16})
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base := map[string]MitigationRow{}
	defended := map[string]MitigationRow{}
	for _, row := range r.Rows {
		if row.Mitigation == "" {
			base[string(row.Channel)] = row
		} else {
			defended[string(row.Channel)] = row
		}
	}
	for ch, b := range base {
		d, ok := defended[ch]
		if !ok {
			t.Fatalf("missing defended row for %s", ch)
		}
		if b.ErrorRate() != 0 {
			t.Errorf("%s baseline should be error-free, got %.2f", ch, b.ErrorRate())
		}
		if !b.Detected {
			t.Errorf("%s baseline should be detected", ch)
		}
		// The defense must wreck reliability: ≥25% errors is already a
		// dead channel (coin flipping is 50%).
		if d.ErrorRate() < 0.25 {
			t.Errorf("%s under %s still decodes: error rate %.2f",
				ch, d.Mitigation, d.ErrorRate())
		}
	}
	if !strings.Contains(r.Summary(), "defense") {
		t.Error("summary broken")
	}
}

func TestExtEvasion(t *testing.T) {
	if testing.Short() {
		t.Skip("evasion sweep is slow")
	}
	r := ExtEvasion(Options{Seed: 1, TimeScale: 100, MessageBits: 16})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	clean := r.Rows[0]
	full := r.Rows[len(r.Rows)-1]
	if clean.Noise != 0 || clean.ErrorRate != 0 || !clean.Detected {
		t.Errorf("clean row wrong: %+v", clean)
	}
	// Full camouflage: the histogram is still burst-dominated (it is
	// made of bursts!), so detection holds...
	if !full.Detected {
		t.Errorf("full camouflage escaped detection: %+v", full)
	}
	// ...while the spy's reliability collapses (the paper's argument
	// why evasion-by-inflation is self-defeating).
	if full.ErrorRate < 0.2 {
		t.Errorf("full camouflage error rate %.2f too low", full.ErrorRate)
	}
	// Error rate grows with camouflage intensity.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ErrorRate < r.Rows[i-1].ErrorRate {
			t.Errorf("error rate not monotone: %+v", r.Rows)
			break
		}
	}
	if !strings.Contains(r.Summary(), "camouflage") {
		t.Error("summary broken")
	}

	// The adaptive-evader frontier: every channel × every setting,
	// baseline first per channel.
	if want := len(channels.Table) * len(frontierSettings); len(r.Frontier) != want {
		t.Fatalf("frontier rows = %d, want %d", len(r.Frontier), want)
	}
	degraded := map[string]bool{}
	for _, row := range r.Frontier {
		ch := string(row.Channel)
		if row.Jitter == 0 && row.Duty == 0 {
			// Full-amplitude periodic baseline: detected, error-free.
			if !row.Detected {
				t.Errorf("%s frontier baseline not detected", ch)
			}
			if row.ErrorRate != 0 {
				t.Errorf("%s frontier baseline has %.1f%% errors", ch, row.ErrorRate*100)
			}
			continue
		}
		if !row.Detected {
			degraded[ch] = true
		}
	}
	// The acceptance bar: at least one adaptive-evader setting per
	// channel where detection degrades.
	for _, spec := range channels.Table {
		if !degraded[spec.Name] {
			t.Errorf("%s never crossed the detection frontier", spec.Name)
		}
	}
	// And the frontier is a real trade, not a dead channel: some
	// setting evades detection while the spy still decodes (≤5% BER).
	crossed := false
	for _, row := range r.Frontier {
		if !row.Detected && row.ErrorRate <= 0.05 {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Error("no frontier point evades detection while preserving reliability")
	}
	if !strings.Contains(r.Summary(), "frontier") {
		t.Error("frontier summary broken")
	}
}
