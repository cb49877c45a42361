package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cchunter"
)

const refDir = "../reference"

// oneCellPerChannel picks the frontier's full-amplitude, strictly
// periodic cell of every channel, plus the first benign mix.
func oneCellPerChannel() []Cell {
	var out []Cell
	for _, c := range FrontierCells(1) {
		if strings.HasSuffix(c.Name, "/j0-d0") {
			out = append(out, c)
		}
	}
	return append(out, BenignCells(1)[0])
}

// TestReplayMatchesRunPerChannel runs one scenario per channel traced,
// twice: each flight replay must equal Scenario.Run's verdict, and the
// two runs' fingerprints and simulated counts must be identical.
func TestReplayMatchesRunPerChannel(t *testing.T) {
	cells := oneCellPerChannel()
	if len(cells) != len(frontierChannels)+1 {
		t.Fatalf("picked %d cells, want one per channel plus a benign mix", len(cells))
	}
	for _, c := range cells {
		t.Run(c.Name, func(t *testing.T) {
			var sp spans
			a, diff, err := traceCell(c, &sp)
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				t.Fatal(diff)
			}
			b, diff, err := traceCell(c, &sp)
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				t.Fatal(diff)
			}
			if d := CompareCell(a.ref, b.ref); d != "" {
				t.Errorf("two traced runs differ: %s", d)
			}
			if a.ref.Counts["sim.ops"] == 0 || a.ref.Counts["auditor.events"] == 0 {
				t.Errorf("traced run recorded no work: %v", a.ref.Counts)
			}
		})
	}
}

// TestFingerprintStable runs every workload twice in one process and
// requires identical fingerprints. The frontier is represented by one
// cell per channel (the full list is the untraced run's own check).
func TestFingerprintStable(t *testing.T) {
	for name, cells := range map[string][]Cell{
		Frontier:  oneCellPerChannel()[:len(frontierChannels)],
		BenignMix: BenignCells(7),
	} {
		for _, c := range cells {
			var first string
			for i := 0; i < 2; i++ {
				res, err := c.Scenario.Run()
				if err != nil {
					t.Fatal(err)
				}
				v, err := Verdict(res)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = v
				} else if v != first {
					t.Errorf("%s/%s: fingerprint changed between runs", name, c.Name)
				}
			}
		}
	}
	var first *FleetRef
	for i := 0; i < 2; i++ {
		fr, err := runFleet(FleetConfig(7, 2))
		if err != nil {
			t.Fatal(err)
		}
		got, err := FleetRefOf(2, fleetEpochs, fr.final)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
			continue
		}
		if n, diffs := CompareFleet(first, got); n != 0 {
			t.Errorf("fleet fingerprint changed between runs: %v", diffs)
		}
	}
}

// TestCorruptedReferenceFails flips one pinned entry per workload and
// requires the run to report a failure and an incorrect outcome.
func TestCorruptedReferenceFails(t *testing.T) {
	ref, err := LoadReference(refDir, 1)
	if err != nil || ref == nil {
		t.Fatalf("loading the seed-1 reference: %v", err)
	}
	corrupt := func(mutate func(*Reference)) *Reference {
		buf, _ := json.Marshal(ref)
		var c Reference
		if err := json.Unmarshal(buf, &c); err != nil {
			t.Fatal(err)
		}
		mutate(&c)
		return &c
	}
	cases := []struct {
		name     string
		workload string
		ref      *Reference
	}{
		{"verdict", BenignMix, corrupt(func(r *Reference) { r.BenignMix[1].Verdict = "00" + r.BenignMix[1].Verdict[2:] })},
		{"count", BenignMix, corrupt(func(r *Reference) { r.BenignMix[0].Counts["sim.ops"]++ })},
		{"stream", Fleet, corrupt(func(r *Reference) {
			for k := range r.Fleet.Streams {
				r.Fleet.Streams[k] = "true 0.5 \"\" 0"
				break
			}
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, err := Execute(Options{Workload: tc.workload, Seed: 1, Reference: tc.ref, Hosts: tc.ref.Fleet.Hosts})
			if err != nil {
				t.Fatal(err)
			}
			out := run.Outcome()
			if out.Correct || out.Failed == 0 {
				t.Fatalf("corrupted reference passed: %+v", out)
			}
		})
	}
	// The uncorrupted reference passes.
	run, err := Execute(Options{Workload: BenignMix, Seed: 1, Reference: ref})
	if err != nil {
		t.Fatal(err)
	}
	if out := run.Outcome(); !out.Correct {
		t.Fatalf("committed reference failed: %v", run.Diffs)
	}
}

// TestFleetCannotShed shows the fleet workload's queues hold a whole
// epoch: the configured depth covers the bound for every host count,
// the bound's premise (no two events of a source closer than
// fleetMinEventGap cycles) holds on captured trains, and the workload's
// own fleet sheds nothing.
func TestFleetCannotShed(t *testing.T) {
	for hosts := 1; hosts <= 64; hosts++ {
		cfg := FleetConfig(1, hosts)
		if cfg.Hosts*cfg.StreamsPerHost < fleetStreams {
			t.Fatalf("%d hosts: %d streams, want at least %d", hosts, cfg.Hosts*cfg.StreamsPerHost, fleetStreams)
		}
		if cfg.QueueLen < FleetMaxBatchesPerEpoch(cfg) {
			t.Fatalf("%d hosts: queue %d below the epoch bound %d", hosts, cfg.QueueLen, FleetMaxBatchesPerEpoch(cfg))
		}
	}

	// Every stream covert, so every stream detects and leaves a flight.
	small := FleetConfig(1, 1)
	small.StreamsPerHost = 6
	small.CovertEvery = 1
	small.FlightEvents = fleetFlightEvents
	fr, err := runFleet(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.flights) == 0 {
		t.Fatal("no flights captured")
	}
	for _, cf := range fr.flights {
		if cf.Flight.Truncated {
			t.Fatalf("%s: flight truncated at %d events", cf.Key, len(cf.Flight.Events))
		}
		ev := cf.Flight.Events
		for i := 1; i < len(ev); i++ {
			if gap := ev[i].Cycle - ev[i-1].Cycle; gap < fleetMinEventGap {
				t.Fatalf("%s: events %d cycles apart, below the assumed minimum %d", cf.Key, gap, fleetMinEventGap)
			}
		}
	}

	fr, err = runFleet(FleetConfig(1, runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if fr.shed != 0 || fr.produced == 0 {
		t.Fatalf("workload fleet produced %d events and shed %d", fr.produced, fr.shed)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNames checks every metric name and unit against the
// benchmark contract, and that BENCHMARK.json lists exactly the metrics
// the code reports.
func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]MetricSpec(nil), EndToEnd...), PerLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}

	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []MetricSpec) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, code reports %d", len(got), what, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s (%s), code reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, EndToEnd)
	same("per_layer", doc.PerLayer, PerLayer)
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("BENCHMARK.json workload %d = %q, code has %q", i, w.Name, Workloads[i])
		}
	}
}

// TestOutcomeReportsEveryMetric runs the cheaper workloads both ways
// and requires exactly the declared metrics, each with its unit.
func TestOutcomeReportsEveryMetric(t *testing.T) {
	for _, w := range []string{BenignMix, Fleet} {
		for _, traced := range []bool{false, true} {
			run, err := Execute(Options{Workload: w, Seed: 11, Trace: traced})
			if err != nil {
				t.Fatal(err)
			}
			out := run.Outcome()
			if !out.Correct {
				t.Fatalf("%s trace=%t: %v", w, traced, run.Diffs)
			}
			want := EndToEnd
			if traced {
				want = PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
			if len(run.Checks) == 0 {
				t.Errorf("%s trace=%t: no check reported", w, traced)
			}
		}
	}
}

// TestLayerAttribution profiles a known busy loop and checks the
// decoder attributes its samples, skipping labelled ones.
func TestLayerAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"cchunter/internal/sim.(*System).Run":          "sim",
		"cchunter/internal/bloom.(*Filter).AddAt":      "conflict",
		"cchunter/internal/workload.(*Program).Step":   "programs",
		"runtime.mallocgc":                             "runtime",
		"sync.(*Mutex).Lock":                           "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"math.Sqrt":                            "",
		"sort.Float64s":                        "",
		"cchunter.Scenario.Run":                "other",
		"cchunter/internal/obs.(*Counter).Add": "other",
		"sync/atomic.(*Pointer[go.shape.struct {}]).Load": "runtime",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}

	ls := LayerSamples{}
	err := profiled(ls, func() error {
		deadline := time.Now().Add(300 * time.Millisecond)
		pprof.Do(context.Background(), pprof.Labels(profileLabel, "replay"), func(context.Context) {
			for time.Now().Before(deadline) {
				res, err := BenignCells(1)[0].Scenario.Run()
				if err != nil || res == nil {
					return
				}
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Background GC work carries no label; nothing else may leak.
	if n := ls.Total() - ls["runtime"]; n != 0 {
		t.Errorf("%d labelled samples were attributed: %v", n, ls)
	}
	err = profiled(ls, func() error {
		_, err := cchunter.Scenario{
			Channel: cchunter.ChannelNone, Workloads: []string{"mcf", "stream"},
			DurationQuanta: 8, QuantumCycles: 25_000_000,
		}.Run()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Total() == 0 {
		t.Skip("profiler took no samples")
	}
	sum := 0.0
	for _, s := range ls.Shares() {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if ls["sim"]+ls["cache"]+ls["conflict"] == 0 {
		t.Errorf("no samples in the simulator layers: %v", ls)
	}
}

// TestRunCompleteGrowsFlight arms a flight ring far too small for the
// run: runComplete must come back with a complete flight whose replays
// agree with the live verdict.
func TestRunCompleteGrowsFlight(t *testing.T) {
	c := oneCellPerChannel()[0]
	sc := c.Scenario
	sc.Metrics = cchunter.NewMetricsRegistry()
	sc.FlightEvents = 16
	res, err := runComplete(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flight == nil || res.Flight.Truncated {
		t.Fatal("flight still truncated")
	}
	if d := replayAgrees(c.Name, res); d != "" {
		t.Fatal(d)
	}
}

// TestCalibratorMeasuresKernelWork times a second reference kernel's
// work against the calibrator's: whatever the host's speed, it must
// read as that many kernel units of reference time.
func TestCalibratorMeasuresKernelWork(t *testing.T) {
	cal := newCalibrator(1)
	k := newRefKernel(7)
	k.run(3)
	const units = 200
	var xs []float64
	for i := 0; i < 5; i++ {
		ref, raw, err := cal.measure(units/3, func() error {
			k.run(units)
			return nil
		})
		if err != nil || raw <= 0 {
			t.Fatalf("measure: %v, raw %v", err, raw)
		}
		xs = append(xs, ref)
	}
	want := units * refUnitSeconds
	if got := median(xs); got < 0.8*want || got > 1.25*want {
		t.Errorf("kernel work measured %.6fs in reference time, want about %.6fs", got, want)
	}
}

// TestBalancedMessage checks that a message has exactly half ones, is a
// pure function of its seed, and that seeds order the bits differently.
func TestBalancedMessage(t *testing.T) {
	for _, n := range []int{10, 16, 32} {
		a, b := BalancedMessage(n, 1), BalancedMessage(n, 1)
		ones := 0
		for i, bit := range a {
			ones += bit
			if bit != b[i] {
				t.Fatalf("n=%d: two calls with one seed differ", n)
			}
		}
		if ones != n/2 {
			t.Errorf("n=%d: %d ones, want %d", n, ones, n/2)
		}
		if fmt.Sprint(a) == fmt.Sprint(BalancedMessage(n, 2)) {
			t.Errorf("n=%d: seeds 1 and 2 give the same message", n)
		}
	}
}
