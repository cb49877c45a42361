// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time, checks every verdict against the committed
// reference for the seed (or, for a seed without one, that the run's
// paths agree), and prints the outcome as the last line of standard
// output:
//
//	perfbench --workload frontier --seed 1 --seconds 10 --trace 0
//
// --trace 0 times the workload untraced and reports the end-to-end
// metrics; --trace 1 reruns it instrumented, profiled and flight-armed
// and reports the per-layer metrics. -write-reference pins a seed's
// outcome under -refdir. Build and run it from the repository root
// through perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"cchunter/perfbench/bench"
)

func main() {
	workload := flag.String("workload", bench.Frontier, fmt.Sprintf("workload to run: %v", bench.Workloads))
	seed := flag.Uint64("seed", 1, "workload seed; every scenario, message and fleet seed derives from it")
	seconds := flag.Float64("seconds", 10, "how long the timed or traced passes run")
	traced := flag.Int("trace", 0, "0 = untraced end-to-end run, 1 = traced per-layer run")
	refdir := flag.String("refdir", "perfbench/reference", "directory of the committed verdict references")
	write := flag.Bool("write-reference", false, "run every workload at -seed and write its reference to -refdir")
	flag.Parse()

	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if *write {
		ref, err := bench.BuildReference(*seed, runtime.NumCPU())
		if err == nil {
			err = bench.WriteReference(*refdir, ref)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		fmt.Println("wrote", bench.ReferencePath(*refdir, *seed))
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	ref, err := bench.LoadReference(*refdir, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	stamp := bench.NewStamp(*workload, *seed, *traced == 1, *seconds)
	run, err := bench.Execute(bench.Options{
		Workload:  *workload,
		Seed:      *seed,
		Seconds:   *seconds,
		Trace:     *traced == 1,
		Reference: ref,
		Log:       os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, d := range run.Diffs {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH", d)
	}
	out := run.Outcome()
	header, _ := json.Marshal(struct {
		Stamp  bench.Stamp `json:"stamp"`
		Checks []string    `json:"checks"`
	}{stamp, run.Checks})
	result, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(header))
	fmt.Println(string(result))
	if !out.Correct {
		os.Exit(1)
	}
}
