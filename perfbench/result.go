package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract; BENCHMARK.json lists the same
// names and units (bench_test.go checks that they agree).
type metricDef struct {
	name, unit string
}

// endToEnd are measured with tracing off and reported by --trace 0.
var endToEnd = []metricDef{
	{"cpu_us_per_item", "us"},
	{"server_cpu_us_per_item", "us"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are reported by --trace 1. Names are module-prefixed.
var perLayer = []metricDef{
	{"pqclient.items_per_s", "items/s"},
	{"pqclient.call_us_p50", "us"},
	{"pqclient.call_us_p99", "us"},
	{"pqclient.self_us_p50", "us"},
	{"pqclient.self_us_p99", "us"},
	{"pqclient.inserts_per_frame", "ratio"},
	{"pqclient.allocs_per_call", "count"},
	{"pqclient.retries", "count"},
	{"server.self_us_p50", "us"},
	{"server.self_us_p99", "us"},
	{"server.frames_per_flush", "ratio"},
	{"server.pipeline_depth_p50", "count"},
	{"server.wire_bytes_per_item", "B"},
	{"queue.insert_us_p50", "us"},
	{"queue.insert_us_p99", "us"},
	{"queue.delete_us_p50", "us"},
	{"queue.delete_us_p99", "us"},
	{"queue.empty_delete_ratio", "ratio"},
	{"pq.insert_ns", "ns"},
	{"pq.delete_min_ns", "ns"},
	{"pq.admit_ns", "ns"},
	{"pq.insert_batch_ns_per_item", "ns"},
	{"pq.delete_min_batch_ns_per_item", "ns"},
	{"wire.encode_ns_per_item", "ns"},
	{"wire.decode_ns_per_item", "ns"},
	{"wire.allocs_per_frame", "count"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.replay_s", "s"},
	{"wal.appends_per_fsync", "ratio"},
	{"wal.group_commit_p50", "count"},
	{"wal.fsync_us_p99", "us"},
	{"wal.snapshots", "count"},
	{"wal.disk_bytes_per_user_byte", "ratio"},
	{"sim.events_per_cpu_s", "1/s"},
	{"sim.idle_ratio", "ratio"},
	{"host.steal_pct", "%"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.frames_per_flush_ratio", "ratio"},
	{"trace.writes_per_flush", "ratio"},
}

// result accumulates one run's outcome.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	absent    map[string]string // metric -> why this workload cannot measure it
	notes     []string          // failed checks, printed before the result
}

func newResult() *result {
	return &result{correct: true, values: map[string]float64{}, absent: map[string]string{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// markAbsent reports metrics the workload does not exercise: they are
// printed as 0 with the reason on a comment line.
func (r *result) markAbsent(reason string, names ...string) {
	for _, n := range names {
		r.absent[n] = reason
	}
}

// fail records a failed correctness check; n failures count against
// the operations attempted.
func (r *result) fail(n int64, format string, args ...any) {
	r.correct = false
	r.failed += n
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the failed checks and absent metrics as comment lines,
// then the result JSON as the last line. Every metric of the selected
// table must have been set or marked absent.
func (r *result) write(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "# check failed:", n)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if reason, isAbsent := r.absent[d.name]; isAbsent && !ok {
			fmt.Fprintf(w, "# absent %s: %s\n", d.name, reason)
		} else if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
