// Command cctrace runs a scenario and dumps the raw indicator-event
// trains and density histograms for offline analysis, or replays a
// flight-recorder capture through a fresh detection pipeline.
//
// Usage:
//
//	cctrace -channel bus [-bps 1000] [-bits 16] [-out trace.csv]
//	        [-kind all|bus-lock|div-contention|conflict-miss|ring-contention|tlb-conflict]
//	        [-ascii]
//	cctrace replay -in flight.json [-stream] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cchunter"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		replayMain(os.Args[2:])
		return
	}
	channel := flag.String("channel", "bus", "covert channel: "+strings.Join(cchunter.ChannelNames(), ", "))
	bps := flag.Float64("bps", 1000, "channel bandwidth in bits per second")
	bits := flag.Int("bits", 16, "random message length")
	sets := flag.Int("sets", 512, "cache sets for the cache channel")
	workloads := flag.String("workloads", "", "comma-separated benign workloads")
	quanta := flag.Int("quanta", 0, "observation quanta (0 = auto)")
	quantum := flag.Uint64("quantum", 0, "OS time quantum in cycles (0 = 250M)")
	out := flag.String("out", "", "CSV output path (default stdout)")
	kind := flag.String("kind", "all", "event kind filter: all, bus-lock, div-contention, conflict-miss, ring-contention, tlb-conflict")
	ascii := flag.Bool("ascii", false, "print an ASCII raster instead of CSV")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	// Resolve -kind before simulating: a typo is a usage error, not a
	// reason to run the whole scenario first.
	var filter *cchunter.EventKind
	if *kind != "all" {
		for _, k := range [...]cchunter.EventKind{
			cchunter.EventBusLock, cchunter.EventDivContention, cchunter.EventConflictMiss,
			cchunter.EventRingContention, cchunter.EventTLBConflict,
		} {
			if k.String() == *kind {
				filter = &k
				break
			}
		}
		if filter == nil {
			fmt.Fprintf(os.Stderr, "cctrace: unknown kind %q\n", *kind)
			os.Exit(2)
		}
	}

	sc := cchunter.Scenario{
		Channel:        cchunter.Channel(*channel),
		BandwidthBPS:   *bps,
		Message:        cchunter.RandomMessage(*bits, *seed),
		CacheSets:      *sets,
		DurationQuanta: *quanta,
		QuantumCycles:  *quantum,
		Seed:           *seed,
		RecordRaw:      true,
	}
	if *workloads != "" {
		sc.Workloads = strings.Split(*workloads, ",")
	}
	if sc.Channel == cchunter.ChannelNone {
		sc.Message = nil
	}
	res, err := sc.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cctrace:", err)
		os.Exit(2)
	}

	train := res.RawTrain
	if filter != nil {
		train = train.FilterKind(*filter)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cctrace:", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	if *ascii {
		fmt.Fprintf(w, "%d events over %d cycles\n[%s]\n",
			train.Len(), res.EndCycle, train.ASCIITrain(120))
		return
	}
	if err := train.WriteCSV(w); err != nil {
		fmt.Fprintln(os.Stderr, "cctrace:", err)
		os.Exit(2)
	}
}

// replayMain re-runs detection over a flight-recorder capture. The
// flight carries everything replay needs (quantum, contexts, divisor,
// end cycle, raw events), so the verdict is reproduced without the
// original workload — and is deterministic: the same flight always
// prints the same report.
func replayMain(args []string) {
	fs := flag.NewFlagSet("cctrace replay", flag.ExitOnError)
	in := fs.String("in", "", "flight capture to replay (required)")
	streamMode := fs.Bool("stream", false, "replay through the streaming detector (adds onset estimates)")
	asJSON := fs.Bool("json", false, "print the replayed report as JSON")
	_ = fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "cctrace replay: -in is required")
		fs.Usage()
		os.Exit(2)
	}
	f, err := cchunter.ReadFlight(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cctrace:", err)
		os.Exit(2)
	}
	if f.Truncated {
		fmt.Fprintf(os.Stderr, "cctrace: flight is truncated (%d events dropped before capture); replaying the recorded suffix\n", f.Dropped)
	}
	if f.Meta.EventsShed > 0 {
		fmt.Fprintf(os.Stderr, "cctrace: live run shed %d events at its ingest queue; the replayed verdict rests on the same reduced evidence base\n", f.Meta.EventsShed)
	}
	replay := cchunter.ReplayFlight
	if *streamMode {
		replay = cchunter.ReplayFlightStreaming
	}
	rep, err := replay(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cctrace:", err)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "cctrace:", err)
			os.Exit(2)
		}
	} else {
		fmt.Printf("replaying %d events (reason: %s, end cycle %d)\n",
			len(f.Events), f.Reason, f.Meta.EndCycle)
		fmt.Println(rep)
	}
	if rep.Detected {
		os.Exit(1)
	}
}
