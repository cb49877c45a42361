package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency hammers one counter, gauge, and histogram
// from GOMAXPROCS goroutines and asserts exact totals: atomics must
// lose no updates, and concurrent Snapshot calls must not disturb the
// writers (run under -race in CI).
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 20000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine re-resolves its instruments by name, the way
			// independent pipeline stages would.
			c := reg.Counter("hammer.events")
			g := reg.Gauge("hammer.level")
			h := reg.Histogram("hammer.lat", []float64{1, 10, 100})
			for i := 0; i < perWorker; i++ {
				c.Add(2)
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i % 200))
			}
		}()
	}
	// Concurrent readers: snapshots mid-hammer must be well-formed.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if s := reg.Snapshot(); s == nil {
				t.Error("Snapshot returned nil on a live registry")
				return
			}
		}
	}()
	wg.Wait()
	<-done

	total := uint64(workers * perWorker)
	if got := reg.Counter("hammer.events").Value(); got != 3*total {
		t.Errorf("counter = %d, want %d", got, 3*total)
	}
	// Every writer's last store is perWorker-1, so whichever store
	// lands last, the gauge must read it.
	if got := reg.Gauge("hammer.level").Value(); got != perWorker-1 {
		t.Errorf("gauge = %d, want %d", got, perWorker-1)
	}
	h := reg.Histogram("hammer.lat", nil)
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	// Sum of i%200 over perWorker i's, times workers; CAS float
	// accumulation of integers is exact (all values ≤ 2^53).
	var per float64
	for i := 0; i < perWorker; i++ {
		per += float64(i % 200)
	}
	if got := h.Sum(); got != per*float64(workers) {
		t.Errorf("histogram sum = %g, want %g", got, per*float64(workers))
	}
}

// TestNilRegistryFastPath pins the disabled-path contract: every
// operation on a nil registry and its nil instruments is a safe no-op.
func TestNilRegistryFastPath(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x", []float64{1})
	tm := reg.Timer("x_ns")
	if c != nil || g != nil || h != nil || tm != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Add(5)
	c.Inc()
	g.Set(1)
	h.Observe(3)
	sp := tm.Start()
	sp.End()
	tm.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if reg.StageTimes() != nil {
		t.Fatal("nil registry stage times must be nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{0, 10, 10.5, 99, 100, 101, 5000} {
		h.Observe(v)
	}
	want := []uint64{2, 3, 1, 1} // ≤10: {0,10}; ≤100: {10.5,99,100}; ≤1000: {101}; over: {5000}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5320.5) > 1e-9 {
		t.Errorf("sum = %g, want 5320.5", got)
	}
}

// TestSnapshotJSONDeterminism: two registries fed identically must
// marshal to identical bytes — the property the golden-verdict suite
// leans on when comparing reports with metrics enabled.
func TestSnapshotJSONDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in different orders; maps must still sort on marshal.
		names := []string{"z.last", "a.first", "m.middle"}
		for _, n := range names {
			r.Counter(n).Add(7)
			r.Gauge("g." + n).Set(-3)
			r.Histogram("h."+n, []float64{1, 2}).Observe(1.5)
		}
		return r
	}
	a, _ := json.Marshal(build().Snapshot())
	b, _ := json.Marshal(build().Snapshot())
	if string(a) != string(b) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestStageTimes(t *testing.T) {
	reg := NewRegistry()
	reg.Timer("sim_ns").ObserveDuration(3 * time.Second)
	reg.Timer("analyze_ns").ObserveDuration(time.Second)
	reg.Histogram("not.a.timer", []float64{1}).Observe(99)

	times := reg.StageTimes()
	if len(times) != 2 {
		t.Fatalf("stage times = %v, want 2 entries", times)
	}
	if times["sim"] != 3*time.Second || times["analyze"] != time.Second {
		t.Errorf("stage times = %v", times)
	}
	if top := TopStages(times, 1); len(top) != 1 || top[0] != "sim" {
		t.Errorf("TopStages = %v, want [sim]", top)
	}
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served").Add(42)
	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("handler served invalid JSON: %v\n%s", err, rec.Body)
	}
	if snap.Counters["served"] != 42 {
		t.Errorf("served counter = %d, want 42", snap.Counters["served"])
	}

	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Body.String(); got != "{}\n" {
		t.Errorf("nil-registry handler served %q, want {}", got)
	}
}
