package bench

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"cchunter/internal/experiments"
)

// Metric is one reported figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Stamp identifies the machine, toolchain and inputs a run measured.
type Stamp struct {
	Workload      string  `json:"workload"`
	Seed          uint64  `json:"seed"`
	Trace         bool    `json:"trace"`
	Seconds       float64 `json:"seconds"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	GitCommit     string  `json:"git_commit"`
	CalibrationNS int64   `json:"calibration_ns"`
}

// NewStamp captures the stamp; Calibrate times a fixed FFT
// autocorrelogram so runs on different machines can be related.
func NewStamp(workload string, seed uint64, trace bool, seconds float64) Stamp {
	return Stamp{
		Workload:      workload,
		Seed:          seed,
		Trace:         trace,
		Seconds:       seconds,
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		GitCommit:     gitCommit(),
		CalibrationNS: experiments.Calibrate(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is
// one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is the VCS revision the binary was built from, when the
// build saw a repository.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// median returns the middle value (mean of the middle two); 0 when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// MetricSpec names one reported metric and its unit.
type MetricSpec struct {
	Name string
	Unit string
}

// EndToEnd are the untraced run's metrics, reported by every workload.
// Times are in reference seconds (see calibrate.go): host CPU time, all
// threads, per pass (wall time for set-up), measured against the
// reference kernel. Throughputs are per reference second: simulated
// Mcycles (for the fleet, monitored stream cycles), and events
// (simulator operations on the scenario workloads, processed indicator
// events on the fleet).
var EndToEnd = []MetricSpec{
	{"setup_s", "s"},
	{"norm_cpu_s", "s"},
	{"sim_mcycles_per_norm_s", "Mcycles/s"},
	{"events_per_norm_s", "events/s"},
	{"alloc_mb", "MB"},
}

// PerLayer are the traced run's metrics, reported by every workload
// (zero where the workload does not reach the layer).
var PerLayer = func() []MetricSpec {
	var out []MetricSpec
	for _, l := range Layers {
		out = append(out, MetricSpec{"cpu." + l, "ratio"})
	}
	out = append(out,
		MetricSpec{"wall_s", "s"},
		MetricSpec{"scenario.run_s", "s"},
		MetricSpec{"sim.ops_per_s", "1/s"},
		MetricSpec{"auditor.on_events_s", "s"},
		MetricSpec{"core.analyze_s", "s"},
		MetricSpec{"stream.replay_s", "s"},
		MetricSpec{"fleet.run_s", "s"},
		MetricSpec{"fleet.hub_state_s", "s"},
	)
	for _, c := range SimCounts {
		out = append(out, MetricSpec{c, "count"})
	}
	out = append(out,
		MetricSpec{"auditor.dedup_ratio", "ratio"},
		MetricSpec{"fleet.hub.updates", "count"},
		MetricSpec{"fleet.hub.deduped", "count"},
		MetricSpec{"fleet.hub.finals", "count"},
		MetricSpec{"trace.overhead_frac", "ratio"},
		MetricSpec{"error_frac", "ratio"},
		MetricSpec{"shed_frac", "ratio"},
	)
	return out
}()
