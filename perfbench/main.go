// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks every output the system under
// test produced, and prints one JSON result as the last line of
// standard output:
//
//	perfbench -root <checkout> --workload single-op --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer metrics of
// a separate traced run. run.sh builds pqd and this program from the
// checkout and runs it; README.md describes the workloads and metrics.
//
// The process exits 0 only when every correctness check passed. A run
// whose checks failed still prints its result (correct=false) and then
// exits 1; a run that could not be carried out prints no result.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's parsed command line.
type options struct {
	root     string // checkout root; pqd is at .bench_build/bin/pqd
	workload *workload
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// gomaxprocs is the GOMAXPROCS of this process and of every pqd it
// starts. On a 2-vCPU host, two Ps in each of the two processes let the
// kernel's placement of 4 Ps on 2 CPUs move throughput from one daemon
// to the next; one P each keeps runs comparable (README.md).
const gomaxprocs = 1

// buildDir is where run.sh puts binaries and the run its scratch files.
func (o *options) buildDir() string { return filepath.Join(o.root, ".bench_build") }

func parseOptions(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "checkout root holding .bench_build/bin/pqd")
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "seconds the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w := workloadByName(*name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		return nil, err
	}
	return &options{
		root:     abs,
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)

	steal0 := readCPUTimes()
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := readHost(gomaxprocs, stealPct(steal0, readCPUTimes()))
	if o.trace {
		res.set("host.steal_pct", host.StealPct)
	}
	fmt.Fprintln(stdout, "# host", host)
	if err := res.write(stdout, o.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

func runWorkload(o *options) (*result, error) {
	switch {
	case o.workload.sim && o.trace:
		return runSimTraced(o)
	case o.workload.sim:
		return runSim(o)
	case o.trace:
		return runServedTraced(o)
	default:
		return runServed(o)
	}
}
