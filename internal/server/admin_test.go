package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pq"
)

// adminGet fetches one admin path and returns status + body.
func adminGet(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminMetricsAndProbes(t *testing.T) {
	// Not serving yet: liveness answers, readiness refuses.
	srv := New(Config{Concurrency: 8})
	if err := srv.AddQueue(QueueSpec{Name: "jobs", Algorithm: pq.FunnelTree, Priorities: 64, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.AdminHandler())
	defer ts.Close()

	if code, body := adminGet(t, ts, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz before serving: %d %q", code, body)
	}
	if code, _ := adminGet(t, ts, "/readyz"); code != 503 {
		t.Fatalf("/readyz before serving: want 503, got %d", code)
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server did not start listening")
	}
	t.Cleanup(func() { srv.Close(); <-done })

	if code, body := adminGet(t, ts, "/readyz"); code != 200 {
		t.Fatalf("/readyz while serving: %d %q", code, body)
	}

	// Push traffic through so op counters and histograms have samples.
	ctx := context.Background()
	cl := dialClient(t, addr)
	for i := 0; i < 10; i++ {
		if err := cl.Insert(ctx, "jobs", i%64, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.DeleteMin(ctx, "jobs"); err != nil {
		t.Fatal(err)
	}

	code, body := adminGet(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE pq_uptime_seconds gauge",
		"# TYPE pq_connections_accepted_total counter",
		"# TYPE pq_frames_read_total counter",
		"# TYPE pq_pipeline_depth histogram",
		"# TYPE pq_queue_ops_total counter",
		"# TYPE pq_queue_op_latency_seconds histogram",
		"# TYPE pq_queue_shed_total counter",
		"# TYPE pq_queue_size gauge",
		"# TYPE pq_queue_shard_inserts_total counter",
		`pq_queue_ops_total{op="insert",queue="jobs"} 10`,
		`pq_queue_op_latency_seconds_count{op="insert",queue="jobs"} 10`,
		`pq_queue_op_latency_seconds_bucket{op="insert",queue="jobs",le="+Inf"} 10`,
		`pq_queue_shard_inserts_total{queue="jobs",shard="0"}`,
		`pq_queue_shard_inserts_total{queue="jobs",shard="3"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// No WAL attached: no WAL families.
	if strings.Contains(body, "pq_wal_") {
		t.Errorf("/metrics shows WAL families without a WAL")
	}

	// statusz: valid JSON, queue present, peek honored and
	// non-destructive.
	code, body = adminGet(t, ts, "/statusz?items=3")
	if code != 200 {
		t.Fatalf("/statusz: %d %s", code, body)
	}
	var doc struct {
		Ready  bool `json:"ready"`
		Queues []struct {
			Queue string `json:"queue"`
			Size  int64  `json:"size"`
			Items []struct {
				Pri uint32 `json:"pri"`
			} `json:"items"`
		} `json:"queues"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz JSON: %v\n%s", err, body)
	}
	if !doc.Ready || len(doc.Queues) != 1 || doc.Queues[0].Queue != "jobs" {
		t.Fatalf("/statusz doc: %+v", doc)
	}
	if got := len(doc.Queues[0].Items); got != 3 {
		t.Fatalf("statusz items: want 3 peeked, got %d", got)
	}
	if doc.Queues[0].Size != 9 {
		t.Fatalf("statusz size: want 9 (peek must not consume), got %d", doc.Queues[0].Size)
	}
	if code, _ := adminGet(t, ts, "/statusz?items=bogus"); code != 400 {
		t.Fatalf("/statusz?items=bogus: want 400, got %d", code)
	}

	// pprof index is mounted.
	if code, _ := adminGet(t, ts, "/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}

	// Shutdown flips readiness off while liveness stays up.
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	if code, _ := adminGet(t, ts, "/readyz"); code != 503 {
		t.Fatalf("/readyz after shutdown: want 503, got %d", code)
	}
	if code, _ := adminGet(t, ts, "/healthz"); code != 200 {
		t.Fatalf("/healthz after shutdown: want 200, got %d", code)
	}
}

func TestAdminMetricsDurable(t *testing.T) {
	srv := New(Config{Concurrency: 4, DataDir: t.TempDir()})
	if err := srv.AddQueue(QueueSpec{Name: "dur", Algorithm: pq.SkipList, Priorities: 8}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Cleanup(func() { srv.Close(); <-done })

	ctx := context.Background()
	cl := dialClient(t, addr)
	for i := 0; i < 5; i++ {
		if err := cl.Insert(ctx, "dur", i%8, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(srv.AdminHandler())
	defer ts.Close()
	_, body := adminGet(t, ts, "/metrics")
	for _, want := range []string{
		`pq_wal_appends_total{queue="dur"} 5`,
		`pq_wal_poisoned{queue="dur"} 0`,
		"# TYPE pq_wal_fsync_duration_seconds histogram",
		"# TYPE pq_wal_group_commit_records histogram",
		`pq_wal_fsync_duration_seconds_count{queue="dur"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// STATS v3 carries the WAL distributions too.
	st, err := cl.Stats(ctx, "dur")
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil || st.Durability.FsyncLatency == nil || st.Durability.GroupCommit == nil {
		t.Fatalf("v3 durable stats missing WAL distributions: %+v", st.Durability)
	}
	if st.Durability.FsyncLatency.Count == 0 {
		t.Fatal("fsync latency distribution has no samples under SyncAlways")
	}
}

// startServerCfg is startServer with a caller-supplied base config.
func startServerCfg(t *testing.T, cfg Config, specs ...QueueSpec) (*Server, string) {
	t.Helper()
	s := New(cfg)
	for _, spec := range specs {
		if err := s.AddQueue(spec); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := s.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server did not start listening")
	}
	t.Cleanup(func() { s.Close(); <-done })
	return s, addr
}

func TestStatsV3Latency(t *testing.T) {
	_, addr := startServerCfg(t, Config{Concurrency: 4},
		QueueSpec{Name: "q", Algorithm: pq.SimpleTree, Priorities: 16})
	ctx := context.Background()
	cl := dialClient(t, addr)
	for i := 0; i < 20; i++ {
		if err := cl.Insert(ctx, "q", i%16, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.DeleteMin(ctx, "q"); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	if st.StatsVersion < 3 {
		t.Fatalf("stats_version = %d, want >= 3", st.StatsVersion)
	}
	if st.Latency == nil {
		t.Fatal("v3+ stats missing latency section")
	}
	if st.Latency.Insert.Count != 20 {
		t.Fatalf("insert latency count = %d, want 20", st.Latency.Insert.Count)
	}
	if st.Latency.DeleteMin.Count != 1 {
		t.Fatalf("delete_min latency count = %d, want 1", st.Latency.DeleteMin.Count)
	}
	if st.Latency.Insert.P50 <= 0 || st.Latency.Insert.P99 < st.Latency.Insert.P50 {
		t.Fatalf("implausible insert latency dist: %+v", st.Latency.Insert)
	}
}
