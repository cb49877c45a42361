// Command cchunt runs one CC-Hunter detection scenario and prints the
// verdict.
//
// Usage:
//
//	cchunt -channel bus|divider|cache|ring|tlb|none [-bps 1000] [-bits 64]
//	       [-sets 512] [-workloads gobmk,sjeng] [-quanta 0]
//	       [-quantum 250000000] [-divisor 1] [-ideal] [-seed 1]
//	       [-faults drop=0.05,jitter=200] [-v] [-metrics-addr :8080]
//	       [-evade-jitter 0] [-evade-duty 0] [-fec]
//	       [-stream] [-start-quanta 0] [-watchdog 30s] [-record flight.json]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Examples:
//
//	cchunt -channel bus -bps 1000            # detect a bus channel
//	cchunt -channel cache -sets 256 -v       # cache channel, verbose
//	cchunt -channel ring                     # ring-interconnect channel
//	cchunt -channel tlb -fec                 # TLB channel, FEC-framed
//	cchunt -channel none -workloads stream,stream   # false-alarm check
//	cchunt -channel bus -faults drop=0.05    # degraded sensor path
//	cchunt -channel bus -evade-duty 0.06     # adaptive evader vs detector
//	cchunt -channel cache -metrics-addr :8080   # live pipeline metrics
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"cchunter"
)

func main() {
	channel := flag.String("channel", "bus", "covert channel: "+strings.Join(cchunter.ChannelNames(), ", "))
	bps := flag.Float64("bps", 1000, "channel bandwidth in bits per second")
	bits := flag.Int("bits", 64, "random message length in bits")
	sets := flag.Int("sets", 512, "cache sets used by the cache channel")
	workloads := flag.String("workloads", "", "comma-separated benign workloads (see -list)")
	list := flag.Bool("list", false, "list available workloads and exit")
	quanta := flag.Int("quanta", 0, "observation quanta (0 = enough for the message)")
	startQuanta := flag.Int("start-quanta", 0, "delay the channel's first bit by this many benign quanta (gives -stream a change to date)")
	quantum := flag.Uint64("quantum", 0, "OS time quantum in cycles (0 = paper's 250M)")
	divisor := flag.Int("divisor", 1, "oscillation observation windows per quantum")
	ideal := flag.Bool("ideal", false, "use the ideal LRU-stack conflict tracker")
	mitigation := flag.String("mitigation", "", "defense to apply: buslimit, partition, tdm, clockfuzz")
	faultSpec := flag.String("faults", "", "sensor fault spec, comma-separated key=value (keys: "+
		strings.Join(cchunter.FaultSpecKeys(), ", ")+")")
	seed := flag.Uint64("seed", 1, "random seed")
	evadeJitter := flag.Float64("evade-jitter", 0, "adaptive evader period jitter in [0, 0.5] (0 = strictly periodic slots)")
	evadeDuty := flag.Float64("evade-duty", 0, "adaptive evader amplitude duty cycle in (0, 1] (0 = full amplitude)")
	fec := flag.Bool("fec", false, "frame the message with two-layer FEC (Berger-checked words + XOR group parity)")
	metricsAddr := flag.String("metrics-addr", "", "serve live pipeline metrics as JSON on this address (e.g. :8080) for the duration of the run")
	streamMode := flag.Bool("stream", false, "streaming detection: conflict train and quantum histograms bounded by the observation window (verdict identical; adds onset estimates)")
	watchdog := flag.Duration("watchdog", 0, "analysis watchdog timeout; overrun or panic yields a degraded verdict (0 = off)")
	record := flag.String("record", "", "write a flight-recorder capture (raw events around the verdict) to this file for cctrace replay")
	verbose := flag.Bool("v", false, "print histograms and per-window detail")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *list {
		fmt.Println("workloads:", strings.Join(cchunter.WorkloadNames(), ", "))
		return
	}

	// Validate enumerated flags up front: a typo'd channel or mitigation
	// is a usage error (exit 2 with usage), not a runtime failure.
	if *channel != "" && !slices.Contains(cchunter.ChannelNames(), *channel) {
		usageError("unknown channel %q (want one of %s)", *channel, strings.Join(cchunter.ChannelNames(), ", "))
	}
	switch *mitigation {
	case "", "buslimit", "partition", "tdm", "clockfuzz":
	default:
		usageError("unknown mitigation %q (want buslimit, partition, tdm, or clockfuzz)", *mitigation)
	}
	faultCfg, err := cchunter.ParseFaultSpec(*faultSpec)
	if err != nil {
		usageError("bad -faults spec: %v", err)
	}

	sc := cchunter.Scenario{
		Channel:            cchunter.Channel(*channel),
		BandwidthBPS:       *bps,
		Message:            cchunter.RandomMessage(*bits, *seed),
		CacheSets:          *sets,
		DurationQuanta:     *quanta,
		ChannelStartQuanta: *startQuanta,
		QuantumCycles:      *quantum,
		ObservationDivisor: *divisor,
		IdealTracker:       *ideal,
		Mitigation:         *mitigation,
		Faults:             faultCfg,
		Seed:               *seed,
		Stream:             *streamMode,
		Watchdog:           *watchdog,
		EvaderJitter:       *evadeJitter,
		EvaderDuty:         *evadeDuty,
		FECFrame:           *fec,
	}
	if *record != "" {
		sc.FlightEvents = -1 // default ring capacity
	}
	if *workloads != "" {
		sc.Workloads = strings.Split(*workloads, ",")
	}
	if sc.Channel == cchunter.ChannelNone {
		sc.Message = nil
	}

	var reg *cchunter.MetricsRegistry
	if *metricsAddr != "" {
		reg = cchunter.NewMetricsRegistry()
		sc.Metrics = reg
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			usageError("bad -metrics-addr: %v", err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/\n", ln.Addr())
		go func() { _ = http.Serve(ln, cchunter.MetricsHandler(reg)) }()
	}

	stopProfiles := startProfiles(*cpuProfile, *memProfile)

	res, err := sc.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cchunt:", err)
		stopProfiles()
		os.Exit(2)
	}

	fmt.Printf("simulated %.3f s of machine time (%d quanta)\n",
		float64(res.EndCycle)/2.5e9, res.EndCycle/res.QuantumCycles)
	if res.Sent != nil { // a channel ran
		fmt.Printf("channel: %s at %g bps, %d bits decoded, %d errors\n",
			sc.Channel, *bps, len(res.Decoded), res.BitErrors)
	}
	if fs := res.FaultStats; fs != nil {
		fmt.Printf("sensor faults: %d/%d events lost (%.1f%%), %d corrupted\n",
			fs.Lost(), fs.Seen, 100*fs.LossRate(), fs.CtxFlipped+fs.CtxSmeared)
	}
	fmt.Println(res.Report)
	if s := res.Report.Streaming; s != nil {
		for _, o := range s.Onsets {
			if !o.Detected {
				continue
			}
			fmt.Printf("onset: %s change at cycle %d (%.3f s), alarm fired at cycle %d\n",
				o.Kind, o.OnsetCycle, float64(o.OnsetCycle)/2.5e9, o.FiredCycle)
		}
		if s.EventsShed > 0 {
			fmt.Printf("load shedding: %d events dropped at the ingest queue\n", s.EventsShed)
		}
	}
	if *record != "" && res.Flight != nil {
		if err := res.Flight.WriteFile(*record); err != nil {
			fmt.Fprintln(os.Stderr, "cchunt:", err)
			stopProfiles()
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "flight: %d events (%s) -> %s\n",
			len(res.Flight.Events), res.Flight.Reason, *record)
	}

	if *verbose {
		if res.BusHistogram != nil && res.BusHistogram.TotalFrom(1) > 0 {
			fmt.Println("\nbus lock density histogram:")
			fmt.Println(res.BusHistogram)
		}
		if res.DivHistogram != nil && res.DivHistogram.TotalFrom(1) > 0 {
			fmt.Println("divider contention density histogram:")
			fmt.Println(res.DivHistogram)
		}
		if osc := res.Report.Oscillation; osc != nil {
			for i, w := range osc.Windows {
				fmt.Printf("window %d: %d events, peak %.3f at lag %d, harmonics %d, detected=%v\n",
					i, w.Events, w.PeakValue, w.FundamentalLag, w.Harmonics, w.Detected)
			}
		}
	}

	stopProfiles()
	if res.Report.Detected {
		os.Exit(1) // grep-able and script-friendly: alarm = non-zero
	}
}

// startProfiles begins CPU profiling when requested and returns the
// function that stops it and writes the heap profile. Callers must
// invoke it before every exit from a profiled run — deferred calls
// would be skipped by os.Exit, and cchunt exits non-zero by design
// when it detects a channel.
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cchunt:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cchunt:", err)
			os.Exit(2)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cchunt:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cchunt:", err)
		}
	}
}

// usageError prints a message plus flag usage and exits 2, the
// conventional "bad invocation" code (distinct from exit 1 = alarm).
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cchunt: "+format+"\n\n", args...)
	flag.Usage()
	os.Exit(2)
}
