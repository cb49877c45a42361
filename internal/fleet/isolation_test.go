package fleet

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cchunter/internal/obs"
	"cchunter/internal/trace"
)

// gate blocks a shard's consumer until released, counting every event
// that does get through. Holding the consumer makes the bounded ingest
// queue fill and shed — a deterministic stand-in for a tenant whose
// detector cannot keep up.
type gate struct {
	next      trace.Listener
	release   chan struct{}
	delivered atomic.Uint64
}

func (g *gate) wait() { <-g.release }

func (g *gate) OnEvents(events []trace.Event) {
	g.wait()
	g.delivered.Add(uint64(len(events)))
	g.next.OnEvents(events)
}

// tap counts delivered events without interfering — the control side
// of the conservation check.
type tap struct {
	next      trace.Listener
	delivered atomic.Uint64
}

func (t *tap) OnEvents(events []trace.Event) {
	t.delivered.Add(uint64(len(events)))
	t.next.OnEvents(events)
}

// isolationConfig is a fleet where tenant-01's queues are shallow
// enough to overflow once their consumers stall, while every other
// stream's queue exceeds its epoch batch count — so victims cannot
// shed no matter how the scheduler interleaves.
func isolationConfig(overloaded string) Config {
	return Config{
		Hosts:          4,
		StreamsPerHost: 2,
		Tenants:        2,
		EpochQuanta:    16,
		InterimEvery:   0, // interims use Do, which blocks on a stalled consumer
		QueueLen:       4096,
		BatchEvents:    32,
		CovertEvery:    4,
		Seed:           7,
		QueueLenFor: func(k Key) int {
			if k.Tenant == overloaded {
				return 4
			}
			return 0
		},
	}
}

// victimStreams strips the overloaded tenant and volatile counters out
// of a fleet state, leaving exactly the per-stream verdicts the
// isolation guarantee covers.
func victimStreams(t *testing.T, st State, overloaded string) []byte {
	t.Helper()
	var keep []StreamState
	for _, s := range st.Streams {
		if s.Key.Tenant != overloaded {
			keep = append(keep, s)
		}
	}
	buf, err := json.MarshalIndent(keep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestTenantIsolationUnderOverload overloads every tenant-01 stream by
// stalling its consumers mid-epoch and pins two guarantees:
//
//  1. Exact shed accounting: events are conserved — every generated
//     event is either delivered to a detector or counted shed, stream
//     by stream, and the counts surface identically in the final
//     verdicts, the tenant stats, and the obs registry.
//  2. Isolation: tenant-00's verdicts are byte-identical to the same
//     fleet run with no overload anywhere.
func TestTenantIsolationUnderOverload(t *testing.T) {
	const overloaded = "tenant-01"

	// Baseline: identical fleet, nobody stalled, every queue deep
	// enough that nothing sheds.
	baseCfg := isolationConfig(overloaded)
	baseCfg.QueueLenFor = nil
	base, err := New(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	baseSt := base.Hub().State()
	for _, s := range baseSt.Streams {
		if s.EventsShed != 0 {
			t.Fatalf("baseline shed events on %s — queue sizing broken", s.Key)
		}
	}
	wantVictim := victimStreams(t, baseSt, overloaded)

	// Overloaded run: gate every tenant-01 consumer, tap the rest.
	// WrapListener fires on concurrent host goroutines, so the maps
	// need a lock.
	reg := obs.NewRegistry()
	var wrapMu sync.Mutex
	gates := map[Key]*gate{}
	taps := map[Key]*tap{}
	cfg := isolationConfig(overloaded)
	cfg.Metrics = reg
	cfg.WrapListener = func(k Key, next trace.Listener) trace.Listener {
		wrapMu.Lock()
		defer wrapMu.Unlock()
		if k.Tenant == overloaded {
			// Single-epoch run: each stream wraps exactly once.
			g := &gate{next: next, release: make(chan struct{})}
			gates[k] = g
			return g
		}
		tp := &tap{next: next}
		taps[k] = tp
		return tp
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- f.Run(context.Background(), 1) }()

	// Release the gates once the stalled hosts are parked in Close()
	// waiting for their queues to drain. Producers never block on a full
	// queue, so by then each gated stream's epoch is fully produced and
	// its shed count is settled; releasing only lets the residue drain.
	if !waitSettled(reg) {
		t.Fatal("gated streams never settled — no shedding observed")
	}
	for _, g := range gates {
		close(g.release)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("fleet did not finish after releasing gates")
	}

	st := f.Hub().State()

	// Guarantee 1: conservation, stream by stream. produced = delivered
	// + shed exactly; the verdict's EventsShed agrees.
	var hostShed = map[string]uint64{}
	var totalShed uint64
	for _, h := range f.hosts {
		for _, s := range h.shards {
			hostShed[s.key.Tenant] += s.shedTotal
			totalShed += s.shedTotal
			var delivered uint64
			if g := gates[s.key]; g != nil {
				delivered = g.delivered.Load()
			} else if tp := taps[s.key]; tp != nil {
				delivered = tp.delivered.Load()
			} else {
				t.Fatalf("%s: neither gated nor tapped", s.key)
			}
			if s.produced != delivered+s.shedTotal {
				t.Errorf("%s: produced %d != delivered %d + shed %d",
					s.key, s.produced, delivered, s.shedTotal)
			}
		}
	}
	if totalShed == 0 {
		t.Fatal("overload produced no shedding")
	}
	if hostShed["tenant-00"] != 0 {
		t.Errorf("victim tenant shed %d events", hostShed["tenant-00"])
	}
	for _, s := range st.Streams {
		var wantShed uint64
		for _, h := range f.hosts {
			for _, sh := range h.shards {
				if sh.key == s.Key {
					wantShed = sh.shedTotal
				}
			}
		}
		if s.EventsShed != wantShed {
			t.Errorf("%s: verdict EventsShed %d, shard shed %d", s.Key, s.EventsShed, wantShed)
		}
	}
	// The same numbers in tenant stats and the obs registry.
	if got := st.Tenants[overloaded].Shed; got != hostShed[overloaded] {
		t.Errorf("tenant stats shed %d, shards shed %d", got, hostShed[overloaded])
	}
	if got := st.Tenants["tenant-00"].Shed; got != 0 {
		t.Errorf("victim tenant stats shed %d, want 0", got)
	}
	snap := reg.Snapshot()
	if got := uint64(snap.Counters["stream.events_shed"]); got != totalShed {
		t.Errorf("stream.events_shed counter %d, shards shed %d", got, totalShed)
	}

	// Guarantee 2: tenant-00's verdicts byte-identical to the unloaded
	// baseline.
	gotVictim := victimStreams(t, st, overloaded)
	if string(gotVictim) != string(wantVictim) {
		t.Errorf("overloading %s changed another tenant's verdicts\nbaseline:\n%s\noverloaded:\n%s",
			overloaded, wantVictim, gotVictim)
	}

	// And the overloaded tenant's own verdicts carry the shed count in
	// their evidence, not silence: an operator reading the verdict can
	// see its reduced evidence base.
	for _, s := range st.Streams {
		if s.Key.Tenant != overloaded {
			continue
		}
		if s.EventsShed == 0 {
			t.Errorf("%s: overloaded stream reports no shed events", s.Key)
		}
	}
}

// waitSettled polls the shed counter until it is positive and stops
// moving — the point where every gated producer has finished its epoch
// and parked in Close.
func waitSettled(reg *obs.Registry) bool {
	deadline := time.Now().Add(30 * time.Second)
	var last uint64
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		cur := reg.Snapshot().Counters["stream.events_shed"]
		if cur > 0 && cur == last {
			stable++
			if stable >= 5 {
				return true
			}
		} else {
			stable = 0
		}
		last = cur
	}
	return false
}

// TestWrapListenerKeys pins that the wrap hook sees every stream
// exactly once, keyed correctly.
func TestWrapListenerKeys(t *testing.T) {
	cfg := isolationConfig("tenant-01")
	var mu sync.Mutex
	seen := map[Key]int{}
	cfg.WrapListener = func(k Key, next trace.Listener) trace.Listener {
		mu.Lock()
		seen[k]++
		mu.Unlock()
		return next
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if want := cfg.Hosts * cfg.StreamsPerHost; len(seen) != want {
		t.Fatalf("wrap saw %d distinct keys, want %d", len(seen), want)
	}
	for k, n := range seen {
		if n != 2 {
			t.Errorf("%s wrapped %d times, want once per epoch (2)", k, n)
		}
		if !strings.HasPrefix(k.Host, "host-") || !strings.HasPrefix(k.Tenant, "tenant-") {
			t.Errorf("malformed key %s", k)
		}
	}
}
