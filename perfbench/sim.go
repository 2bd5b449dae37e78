package main

import (
	_ "embed"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"

	"pq/simulator"
)

// The paper-fig7 workload: the paper's Figure 7 sweep at quarter scale
// (15 ops per simulated processor instead of 60) through the public
// simulator facade. Its cycle table is deterministic, so every run
// compares it byte for byte with testdata/fig7_quarter.golden.

var fig7Algorithms = []simulator.Algorithm{
	simulator.SimpleLinear, simulator.SimpleTree, simulator.LinearFunnels, simulator.FunnelTree,
}

var fig7Procs = []int{2, 4, 8, 16, 32, 64, 128, 256}

const (
	fig7Priorities = 16
	fig7OpsPerProc = 15 // 60 × 0.25
)

//go:embed testdata/fig7_quarter.golden
var fig7Golden string

type fig7Cell struct {
	alg   simulator.Algorithm
	procs int
}

// fig7Cells lists the sweep's cells in table order.
func fig7Cells() []fig7Cell {
	var cells []fig7Cell
	for _, a := range fig7Algorithms {
		for _, p := range fig7Procs {
			cells = append(cells, fig7Cell{a, p})
		}
	}
	return cells
}

// fig7Order is the cell order of one sweep. The seed shuffles it; the
// simulator's results do not depend on it.
func fig7Order(seed uint64, sweep int) []fig7Cell {
	cells := fig7Cells()
	rng := rand.New(rand.NewPCG(seed, uint64(sweep)))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// fig7Table renders a sweep's results in the canonical cell order.
func fig7Table(results map[fig7Cell]simulator.Result) string {
	var sb strings.Builder
	sb.WriteString("algorithm procs mean_all mean_insert mean_delete inserts deletes failed_deletes sim_cycles events\n")
	for _, c := range fig7Cells() {
		r := results[c]
		fmt.Fprintf(&sb, "%s %d %.3f %.3f %.3f %d %d %d %d %d\n", c.alg, c.procs,
			r.MeanAll, r.MeanInsert, r.MeanDelete, r.Inserts, r.Deletes, r.FailedDeletes, r.SimulatedCycles, r.Events)
	}
	return sb.String()
}

// diffTable returns the number of lines that differ between got and
// want and the first of them.
func diffTable(got, want string) (int, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	n, first := 0, ""
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			if n == 0 {
				first = fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
			}
			n++
		}
	}
	return n, first
}

// cellSample is one timed simulator.Run call.
type cellSample struct {
	cell       fig7Cell
	start, end int64 // ns since the tracer's epoch, when traced
	wall, cpu  time.Duration
	items      int64 // simulated queue operations
	events     int64
}

// simSweep is what one or more full sweeps measured.
type simSweep struct {
	sweeps   int
	samples  []cellSample
	wall     time.Duration
	cpu      time.Duration
	failures int // table lines that drifted from the golden table
	firstBad string
}

// runSweeps runs whole sweeps until d has passed (at least one) and
// checks each sweep's table against the golden one. With tr non-nil
// the calls' start and end are kept as spans. With after non-nil it is
// called after every sweep.
func runSweeps(seed uint64, d time.Duration, tr *tracer, after func() error) (simSweep, error) {
	var s simSweep
	cpu0 := selfCPU()
	t0 := time.Now()
	for s.sweeps == 0 || time.Since(t0) < d {
		results := map[fig7Cell]simulator.Result{}
		for _, c := range fig7Order(seed, s.sweeps) {
			u0, c0 := selfCPU(), time.Now()
			r, err := simulator.Run(c.alg, c.procs, fig7Priorities, simulator.Workload{OpsPerProc: fig7OpsPerProc})
			dt, du := time.Since(c0), selfCPU()-u0
			if err != nil {
				return s, err
			}
			results[c] = r
			cs := cellSample{cell: c, wall: dt, cpu: du,
				items: int64(r.Inserts + r.Deletes), events: r.Events}
			if tr != nil {
				cs.start = tr.since(c0)
				cs.end = cs.start + dt.Nanoseconds()
			}
			s.samples = append(s.samples, cs)
		}
		s.sweeps++
		if n, first := diffTable(fig7Table(results), fig7Golden); n > 0 {
			s.failures += n
			s.firstBad = first
		}
		if after != nil {
			if err := after(); err != nil {
				return s, err
			}
		}
	}
	s.wall = time.Since(t0)
	s.cpu = selfCPU() - cpu0
	return s, nil
}

// perCellQuantile sums each cell's q-quantile of f over its samples,
// giving one sweep's worth of f, and returns it with one sweep's
// simulated operations.
func (s *simSweep) perCellQuantile(f func(cellSample) time.Duration, q float64) (time.Duration, int64) {
	byCell := map[fig7Cell][]float64{}
	items := map[fig7Cell]int64{}
	for _, cs := range s.samples {
		byCell[cs.cell] = append(byCell[cs.cell], float64(f(cs)))
		items[cs.cell] = cs.items
	}
	var sum time.Duration
	var n int64
	for _, c := range fig7Cells() {
		sum += time.Duration(quantile(byCell[c], q))
		n += items[c]
	}
	return sum, n
}

// simSetupsPerSweep is how many times set-up is timed after each
// sweep; setup_s is the median over the run. The host's speed moves
// from one second to the next, so set-ups spread over the run repeat
// better than a burst of them at its start.
const simSetupsPerSweep = 6

// simSetup is the CPU a simulator user spends before the sweep produces
// data: resolving the experiment and running its smallest cell on a
// freshly built machine. It starts from a collected heap, as a fresh
// process would; otherwise about a third of the set-ups paid for
// collecting garbage left by earlier work, and how many did moved the
// run's median.
func simSetup() (time.Duration, error) {
	runtime.GC()
	cpu0 := selfCPU()
	if _, err := simulator.ExperimentByID("fig7"); err != nil {
		return 0, err
	}
	if _, err := simulator.Run(fig7Algorithms[0], fig7Procs[0], fig7Priorities, simulator.Workload{OpsPerProc: fig7OpsPerProc}); err != nil {
		return 0, err
	}
	return selfCPU() - cpu0, nil
}

func checkSweep(s simSweep, res *result) {
	res.attempted += int64(len(s.samples))
	if s.failures > 0 {
		res.fail(int64(s.failures), "paper-fig7 table drifted from the golden table in %d lines; first %s", s.failures, s.firstBad)
	}
}

// runSim is the untraced paper-fig7 run: the end-to-end metrics.
func runSim(o *options) (*result, error) {
	res := newResult()
	var setups []float64
	s, err := runSweeps(o.seed, o.seconds, nil, func() error {
		for i := 0; i < simSetupsPerSweep; i++ {
			d, err := simSetup()
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	checkSweep(s, res)
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	// The sweep is deterministic and host noise only ever slows it:
	// with steal near 0, one 20 s run saw sweeps take 59-107 µs of CPU
	// per simulated operation. Each cell's fastest sample is the least
	// moved by the host (five runs: 56-68 µs, where per-cell medians
	// gave 63-98 µs).
	cpu, items := s.perCellQuantile(func(cs cellSample) time.Duration { return cs.cpu }, 0)
	// The simulator is the whole system under test here: its CPU is
	// both the run's and the "server's".
	res.set("cpu_us_per_item", usPerItem(cpu, items))
	res.set("server_cpu_us_per_item", usPerItem(cpu, items))
	res.set("peak_rss_mb", rss)
	res.set("setup_s", median(setups))
	return res, nil
}

// runSimTraced is the traced paper-fig7 run: half the time untraced,
// half with a span around every simulator.Run call.
func runSimTraced(o *options) (*result, error) {
	res := newResult()
	half := o.seconds / 2
	plain, err := runSweeps(o.seed, half, nil, nil)
	if err != nil {
		return nil, err
	}
	checkSweep(plain, res)
	tr := newTracer(false)
	traced, err := runSweeps(o.seed, half, tr, nil)
	if err != nil {
		return nil, err
	}
	checkSweep(traced, res)

	var events int64
	for _, cs := range traced.samples {
		events += cs.events
	}
	res.set("sim.events_per_cpu_s", ratio(float64(events), traced.cpu.Seconds()))
	res.set("sim.idle_ratio", 1-ratio(traced.cpu.Seconds(), traced.wall.Seconds()))
	res.set("trace.overhead_ratio", ratio(plain.medianItemsPerSec(), traced.medianItemsPerSec()))
	res.markAbsent("paper-fig7 runs the simulator in-process; no pqd, pqclient, wire or WAL call is made",
		servedLayerMetrics...)
	res.markAbsent("paper-fig7 drives no native queue", directLayerMetrics...)
	return res, writeSimSpans(o, traced.samples)
}

// medianItemsPerSec is simulated operations per wall second of one
// sweep of per-cell medians.
func (s *simSweep) medianItemsPerSec() float64 {
	wall, items := s.perCellQuantile(func(cs cellSample) time.Duration { return cs.wall }, 0.5)
	return ratio(float64(items), wall.Seconds())
}
