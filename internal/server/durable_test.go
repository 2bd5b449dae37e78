package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pq"
	"pq/internal/wal"
	"pq/internal/wire"
	"pq/pqclient"
)

// startDurableServer is startServer with a caller-supplied Config and an
// explicit stop function, so restart tests can boot a second server on
// the same data directory.
func startDurableServer(t *testing.T, cfg Config, specs ...QueueSpec) (*Server, string, func() error) {
	t.Helper()
	cfg.Concurrency = 8
	cfg.Logger = testLogger(t)
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
	var once sync.Once
	stop := func() error {
		var err error
		once.Do(func() {
			err = s.Close()
			<-done
		})
		return err
	}
	t.Cleanup(func() { stop() })
	return s, addr, stop
}

func itemKey(pri int, value []byte) string { return fmt.Sprintf("%d/%s", pri, value) }

// drainAll empties the queue via batch pops, returning the multiset of
// (pri, value) pairs it observed.
func drainAll(t *testing.T, c *pqclient.Client, queue string) map[string]int {
	t.Helper()
	ctx := context.Background()
	got := map[string]int{}
	for {
		items, err := c.DeleteMinBatch(ctx, queue, 64)
		if err != nil {
			t.Fatalf("DeleteMinBatch: %v", err)
		}
		if len(items) == 0 {
			return got
		}
		for _, it := range items {
			got[itemKey(it.Pri, it.Value)]++
		}
	}
}

// TestDurableRecoveryAfterClose is the in-process crash analogue: Close
// severs without a final snapshot, so the next boot must rebuild the
// queue from the log tail alone — exactly once per acked insert.
func TestDurableRecoveryAfterClose(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever}
	spec := QueueSpec{Name: "jobs", Algorithm: pq.FunnelTree, Priorities: 16}

	_, addr, stop := startDurableServer(t, cfg, spec)
	c := dialClient(t, addr)
	ctx := context.Background()

	want := map[string]int{}
	for i := 0; i < 40; i++ {
		pri, val := i%16, []byte(fmt.Sprintf("single-%d", i))
		if err := c.Insert(ctx, "jobs", pri, val); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		want[itemKey(pri, val)]++
	}
	var batch []pqclient.Item
	for i := 0; i < 20; i++ {
		batch = append(batch, pqclient.Item{Pri: i % 16, Value: []byte(fmt.Sprintf("batch-%d", i))})
	}
	if n, err := c.InsertBatch(ctx, "jobs", batch); err != nil || n != len(batch) {
		t.Fatalf("InsertBatch accepted %d, err %v", n, err)
	}
	for _, it := range batch {
		want[itemKey(it.Pri, it.Value)]++
	}
	// Pop a few: their delete records must survive the crash too, or the
	// items would come back as ghosts.
	for i := 0; i < 10; i++ {
		it, ok, err := c.DeleteMin(ctx, "jobs")
		if err != nil || !ok {
			t.Fatalf("DeleteMin: ok=%v err=%v", ok, err)
		}
		k := itemKey(it.Pri, it.Value)
		if want[k] == 0 {
			t.Fatalf("popped unknown item %s", k)
		}
		want[k]--
		if want[k] == 0 {
			delete(want, k)
		}
	}
	c.Close()
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	s2, addr2, _ := startDurableServer(t, cfg, spec)
	st, ok := s2.QueueStats("jobs")
	if !ok || st.Durability == nil {
		t.Fatalf("no durability stats after reboot: %+v", st)
	}
	if st.Durability.ReplayedRecords == 0 {
		t.Fatal("boot after Close should have replayed the log tail")
	}
	if st.Durability.RecoveredItems != 50 {
		t.Fatalf("recovered %d items, want 50", st.Durability.RecoveredItems)
	}
	if st.Size != 50 {
		t.Fatalf("size after reboot = %d, want 50", st.Size)
	}

	c2 := dialClient(t, addr2)
	got := drainAll(t, c2, "jobs")
	if len(got) != len(want) {
		t.Fatalf("drained %d distinct items, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("item %s: recovered %d copies, want %d", k, got[k], n)
		}
	}
}

// TestGracefulShutdownSealsWAL checks satellite 3: Shutdown takes a
// final snapshot and seals the segments, so the next boot is a pure
// snapshot load with zero records replayed.
func TestGracefulShutdownSealsWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever}
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8}

	s, addr, stop := startDurableServer(t, cfg, spec)
	c := dialClient(t, addr)
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		if err := c.Insert(ctx, "jobs", i%8, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop()

	s2, _, _ := startDurableServer(t, cfg, spec)
	st, _ := s2.QueueStats("jobs")
	if st.Durability == nil {
		t.Fatal("no durability stats")
	}
	if st.Durability.ReplayedRecords != 0 {
		t.Fatalf("boot after graceful shutdown replayed %d records, want 0", st.Durability.ReplayedRecords)
	}
	if st.Durability.RecoveredItems != 25 || st.Size != 25 {
		t.Fatalf("recovered %d items (size %d), want 25", st.Durability.RecoveredItems, st.Size)
	}
	if st.Durability.TornTail {
		t.Fatal("graceful shutdown left a torn tail")
	}
}

// TestAutoSnapshot checks that the log self-compacts once SnapshotEvery
// records have accumulated.
func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever, SnapshotEvery: 8}
	spec := QueueSpec{Name: "jobs", Algorithm: pq.FunnelTree, Priorities: 8}

	s, addr, _ := startDurableServer(t, cfg, spec)
	c := dialClient(t, addr)
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if err := c.Insert(ctx, "jobs", i%8, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := s.QueueStats("jobs")
		if st.Durability != nil && st.Durability.Snapshots >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic snapshot after 32 inserts with SnapshotEvery=8: %+v", st.Durability)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The queue still serves correctly mid/post-snapshot.
	got := drainAll(t, c, "jobs")
	if len(got) != 32 {
		t.Fatalf("drained %d items, want 32", len(got))
	}
}

// TestDurabilityStatsPlumbing checks satellite 6 end to end: a durable
// server reports versioned durability fields through pqclient.Stats,
// and an in-memory server reports none.
func TestDurabilityStatsPlumbing(t *testing.T) {
	ctx := context.Background()

	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncAlways}
	_, addr, _ := startDurableServer(t, cfg, QueueSpec{Name: "d", Algorithm: pq.SimpleLinear, Priorities: 4})
	c := dialClient(t, addr)
	if err := c.Insert(ctx, "d", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	if st.StatsVersion != wire.StatsVersion {
		t.Fatalf("stats_version = %d, want %d", st.StatsVersion, wire.StatsVersion)
	}
	if st.Durability == nil {
		t.Fatal("durable queue reported no durability stats")
	}
	if st.Durability.FsyncPolicy != "always" {
		t.Fatalf("fsync_policy = %q, want always", st.Durability.FsyncPolicy)
	}
	if st.Durability.Appends == 0 || st.Durability.Fsyncs == 0 {
		t.Fatalf("append/fsync counters not moving: %+v", st.Durability)
	}
	if st.Durability.LastLSN == 0 {
		t.Fatal("last_lsn = 0 after an insert")
	}

	_, addr2 := startServer(t, QueueSpec{Name: "m", Algorithm: pq.SimpleLinear, Priorities: 4})
	c2 := dialClient(t, addr2)
	st2, err := c2.Stats(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Durability != nil {
		t.Fatalf("in-memory queue reported durability stats: %+v", st2.Durability)
	}
}

// TestSealWaitsForInflightSnapshot: Shutdown's final snapshot must not
// be skipped just because a background snapshot is mid-flight — sealWAL
// waits its turn, so "boot after graceful shutdown replays zero
// records" holds even when the shutdown races an auto-snapshot.
func TestSealWaitsForInflightSnapshot(t *testing.T) {
	dir := t.TempDir()
	open := func() (*servedQueue, *wal.Log, wal.Recovery) {
		q, err := newServedQueue(QueueSpec{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 4}, 4)
		if err != nil {
			t.Fatal(err)
		}
		l, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, Logger: testLogger(t)})
		if err != nil {
			t.Fatal(err)
		}
		if err := q.attachWAL(l, rec, 0); err != nil {
			t.Fatal(err)
		}
		return q, l, rec
	}
	q, _, _ := open()
	for i := 0; i < 7; i++ {
		if st, err := q.insert(wire.Item{Pri: uint32(i % 4), Value: []byte{byte(i)}}); err != nil || st != insOK {
			t.Fatalf("insert %d: status=%v err=%v", i, st, err)
		}
	}
	// Fake an in-flight background snapshot that finishes shortly; the
	// seal must wait it out instead of returning without a snapshot.
	q.snapActive.Store(true)
	go func() {
		time.Sleep(30 * time.Millisecond)
		q.snapActive.Store(false)
	}()
	if err := q.sealWAL(); err != nil {
		t.Fatalf("sealWAL: %v", err)
	}

	_, l2, rec := open()
	defer l2.Close()
	if rec.Replayed != 0 {
		t.Fatalf("boot after graceful seal replayed %d records, want 0 (final snapshot was skipped)", rec.Replayed)
	}
	if len(rec.Items) != 7 {
		t.Fatalf("recovered %d items, want 7", len(rec.Items))
	}
}

// TestRecoveredOverflowKeepsAdmissionClosed: a restart with a lowered
// Capacity can recover more items than the admission counter can book
// (AddN clamps at the bound). The surplus is tracked as overflow debt
// so pops don't free phantom slots: inserts keep shedding until real
// occupancy is back under the bound.
func TestRecoveredOverflowKeepsAdmissionClosed(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	var recs []wal.Item
	for i := 0; i < 5; i++ {
		recs = append(recs, wal.Item{ID: l.AllocIDs(1), Pri: uint32(i % 4), Value: []byte{byte(i)}})
	}
	if err := l.AppendInsert(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot with Capacity 3 < the 5 recovered items.
	q, err := newServedQueue(QueueSpec{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 4, Capacity: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	l2, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := q.attachWAL(l2, rec, 0); err != nil {
		t.Fatal(err)
	}
	if got := q.admitOverflow.Load(); got != 2 {
		t.Fatalf("admitOverflow = %d, want 2", got)
	}

	tryInsert := func() insertStatus {
		t.Helper()
		st, err := q.insert(wire.Item{Pri: 0, Value: []byte("new")})
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		return st
	}
	if st := tryInsert(); st != insShed {
		t.Fatalf("insert at occupancy 5/3: status=%v, want shed", st)
	}
	// A batch pop burns the two units of overflow debt without touching
	// the counter: still 3 live, still full.
	if items, err := q.deleteMinBatch(2, 1<<20, nil); err != nil || len(items) != 2 {
		t.Fatalf("deleteMinBatch: %d items, err %v", len(items), err)
	}
	if st := tryInsert(); st != insShed {
		t.Fatalf("insert at occupancy 3/3: status=%v, want shed", st)
	}
	// One more pop drops real occupancy below the bound.
	if _, ok, err := q.deleteMin(); err != nil || !ok {
		t.Fatalf("deleteMin: ok=%v err=%v", ok, err)
	}
	if st := tryInsert(); st != insOK {
		t.Fatalf("insert at occupancy 2/3: status=%v, want admitted", st)
	}
}

// TestDurableQueueNameValidation: a durable queue name becomes a
// directory name, so path-ish names must be rejected.
func TestDurableQueueNameValidation(t *testing.T) {
	s := New(Config{DataDir: t.TempDir()})
	for _, name := range []string{"a/b", `a\b`, ".", ".."} {
		if err := s.AddQueue(QueueSpec{Name: name, Algorithm: pq.SimpleLinear, Priorities: 4}); err == nil {
			t.Errorf("durable queue name %q accepted", name)
		}
	}
}
