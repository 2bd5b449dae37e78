package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pq/internal/wire"
	"pq/simulator"
)

var update = flag.Bool("update", false, "rewrite testdata/fig7_quarter.golden from a fresh sweep")

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json at the
// repository root names exactly the metrics, units and workloads this
// program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestCheckDeliveryClean is the must-pass case: every acked id comes
// back once.
func TestCheckDeliveryClean(t *testing.T) {
	d := checkDelivery([]uint64{0, 1, 2, 3}, []uint64{3, 1, 0, 2}, 0)
	if d.failures() != 0 {
		t.Fatalf("clean run reported %v", d)
	}
}

func TestCheckDeliveryDroppedID(t *testing.T) {
	d := checkDelivery([]uint64{0, 1, 2, 3}, []uint64{0, 1, 3}, 0)
	if d.Lost != 1 || d.failures() != 1 {
		t.Fatalf("dropped id: got %v, want lost=1", d)
	}
}

func TestCheckDeliveryDuplicatedID(t *testing.T) {
	d := checkDelivery([]uint64{0, 1, 2}, []uint64{0, 1, 1, 2}, 0)
	if d.Duplicated != 1 || d.failures() != 1 {
		t.Fatalf("duplicated id: got %v, want duplicated=1", d)
	}
}

func TestCheckDeliveryPhantomAndCorrupt(t *testing.T) {
	d := checkDelivery([]uint64{0}, []uint64{0, 7}, 2)
	if d.Phantom != 1 || d.Corrupt != 2 || d.failures() != 3 {
		t.Fatalf("got %v, want phantom=1 corrupt=2", d)
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{8, 64} {
		v := appendValue(nil, 123456789, size)
		if id, ok := valueID(v, size); !ok || id != 123456789 {
			t.Fatalf("size %d: got id %d ok=%v", size, id, ok)
		}
		if size > 8 {
			v[size-1]++
			if _, ok := valueID(v, size); ok {
				t.Fatalf("size %d: a flipped filler byte was accepted", size)
			}
		}
	}
}

// firstOps records the first n operations of one caller's stream.
func firstOps(w *workload, seed uint64, caller, n int) [][]int {
	s := newOpStream(w, seed, caller)
	var out [][]int
	for i := 0; i < n; i++ {
		insert, pris := s.next()
		op := []int{-1} // delete-min
		if insert {
			op = append([]int(nil), pris...)
		}
		out = append(out, op)
	}
	return out
}

// TestOpStreamSeeded: the same seed gives every served workload the
// same op stream and prefill; another seed gives another.
func TestOpStreamSeeded(t *testing.T) {
	for _, w := range workloads {
		if w.sim {
			continue
		}
		for c := 0; c < w.callers; c++ {
			a, b := firstOps(w, 42, c, 500), firstOps(w, 42, c, 500)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s caller %d: same seed, different op streams", w.name, c)
			}
			if reflect.DeepEqual(a, firstOps(w, 43, c, 500)) {
				t.Fatalf("%s caller %d: seeds 42 and 43 gave the same op stream", w.name, c)
			}
		}
		if !reflect.DeepEqual(prefillPriorities(w, 42), prefillPriorities(w, 42)) {
			t.Fatalf("%s: same seed, different prefill", w.name)
		}
		if reflect.DeepEqual(firstOps(w, 42, 0, 500), firstOps(w, 42, 1, 500)) {
			t.Fatalf("%s: callers 0 and 1 share an op stream", w.name)
		}
	}
}

func TestItemIDsUnique(t *testing.T) {
	w := workloadByName("single-op")
	seen := map[uint64]bool{}
	for c := 0; c < w.callers; c++ {
		for k := 0; k < 100; k++ {
			id := itemID(w, c, k)
			if seen[id] || id < uint64(w.prefill) {
				t.Fatalf("id %d (caller %d, item %d) reused or inside the prefill", id, c, k)
			}
			seen[id] = true
		}
	}
}

func TestFig7OrderSeeded(t *testing.T) {
	if !reflect.DeepEqual(fig7Order(5, 0), fig7Order(5, 0)) {
		t.Fatal("same seed, different cell order")
	}
	if reflect.DeepEqual(fig7Order(5, 0), fig7Order(6, 0)) {
		t.Fatal("seeds 5 and 6 gave the same cell order")
	}
}

// sweepTable runs one full sweep and renders its table.
func sweepTable(t *testing.T) string {
	t.Helper()
	results := map[fig7Cell]simulator.Result{}
	for _, c := range fig7Order(1, 0) {
		r, err := simulator.Run(c.alg, c.procs, fig7Priorities, simulator.Workload{OpsPerProc: fig7OpsPerProc})
		if err != nil {
			t.Fatal(err)
		}
		results[c] = r
	}
	return fig7Table(results)
}

// TestFig7Golden: a fresh sweep reproduces the committed table byte for
// byte. With -update it rewrites the table instead.
func TestFig7Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quarter-scale sweep")
	}
	got := sweepTable(t)
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", "fig7_quarter.golden"), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if n, first := diffTable(got, fig7Golden); n > 0 {
		t.Fatalf("%d lines differ from the golden table; first %s", n, first)
	}
}

// TestFig7DriftDetected is the must-fail case: changing one cell of the
// table is caught, and the sweep check turns it into a failed run.
func TestFig7DriftDetected(t *testing.T) {
	lines := strings.Split(fig7Golden, "\n")
	fields := strings.Fields(lines[5])
	fields[2] += "1" // one digit more on one mean latency
	lines[5] = strings.Join(fields, " ")
	drifted := strings.Join(lines, "\n")
	n, first := diffTable(drifted, fig7Golden)
	if n != 1 || !strings.Contains(first, "line 6") {
		t.Fatalf("one changed cell: got %d differing lines (%s), want 1 at line 6", n, first)
	}
	res := newResult()
	checkSweep(simSweep{samples: make([]cellSample, 32), failures: n, firstBad: first}, res)
	if res.correct || res.failed != 1 {
		t.Fatalf("a drifted table left the run correct=%v failed=%d", res.correct, res.failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Fatalf("median: got %v, want 3", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("median of two: got %v, want 1.5", got)
	}
}

// The same work measured in windows with different host steal must
// give the same CPU per item once the stolen share is taken out.
func TestCPUPerItemScalesOutSteal(t *testing.T) {
	ws := []window{
		{items: 100, cpu: 1000 * time.Microsecond, srvCPU: 500 * time.Microsecond, steal: 0},
		{items: 100, cpu: 2000 * time.Microsecond, srvCPU: 1000 * time.Microsecond, steal: 50},
		{items: 100, cpu: 1250 * time.Microsecond, srvCPU: 625 * time.Microsecond, steal: 20},
	}
	if got := medianCPUPerItemUS(ws); math.Abs(got-10) > 1e-9 {
		t.Fatalf("cpu_us_per_item: got %v, want 10", got)
	}
	if got := medianServerCPUPerItemUS(ws); math.Abs(got-5) > 1e-9 {
		t.Fatalf("server_cpu_us_per_item: got %v, want 5", got)
	}
}

func TestHistQuantile(t *testing.T) {
	const text = `pq_x_bucket{op="a",le="1"} 0
pq_x_bucket{op="a",le="2"} 50
pq_x_bucket{op="a",le="4"} 100
pq_x_bucket{op="a",le="+Inf"} 100
`
	b, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	bs := histDelta(nil, b, "pq_x", map[string]string{"op": "a"})
	if got := histQuantile(bs, 0.5); got != 2 {
		t.Fatalf("p50: got %v, want 2", got)
	}
	if got := histQuantile(bs, 0.75); got != 3 {
		t.Fatalf("p75: got %v, want 3", got)
	}
}

// TestFrameSplitter feeds frames byte by byte and in one piece.
func TestFrameSplitter(t *testing.T) {
	var stream []byte
	stream = append(stream, 0, 0, 0, 11, 1, 0x01, 0, 0, 0, 0, 0, 7, 'a', 'b', 'c')
	stream = append(stream, 0, 0, 0, 8, 1, 0x83, 0, 0, 0, 0, 0, 9)
	for _, step := range []int{1, len(stream)} {
		var s frameSplitter
		var got []string
		for i := 0; i < len(stream); i += step {
			s.feed(stream[i:min(i+step, len(stream))], func(t wire.Type) bool { return true }, func(typ wire.Type, id uint32, p []byte) {
				got = append(got, typ.String()+"/"+string(rune('0'+id))+"/"+string(p))
			})
		}
		want := []string{"INSERT/7/abc", "EMPTY/9/"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: got %q, want %q", step, got, want)
		}
	}
}

func TestResultRequiresEveryMetric(t *testing.T) {
	res := newResult()
	var sb strings.Builder
	if err := res.write(&sb, false); err == nil {
		t.Fatal("a result missing its metrics was written")
	}
	for _, d := range endToEnd {
		res.set(d.name, 1)
	}
	sb.Reset()
	if err := res.write(&sb, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var out jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || len(out.Metrics) != len(endToEnd) || out.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("unexpected result %+v", out)
	}
}
