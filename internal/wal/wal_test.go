package wal

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, mod func(*Options)) (*Log, Recovery) {
	t.Helper()
	opts := Options{Dir: dir, Policy: SyncNever, Logger: testLogger(t)}
	if mod != nil {
		mod(&opts)
	}
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

// testLogger routes slog output to t.Log, so diagnostics show up next
// to the test that produced them.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func liveMap(items []Item) map[uint64]Item {
	m := make(map[uint64]Item, len(items))
	for _, it := range items {
		m[it.ID] = it
	}
	return m
}

func checkItems(t *testing.T, got []Item, want map[uint64]Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d items, want %d", len(got), len(want))
	}
	seen := make(map[uint64]bool, len(got))
	for _, it := range got {
		if seen[it.ID] {
			t.Fatalf("item id=%d recovered twice", it.ID)
		}
		seen[it.ID] = true
		w, ok := want[it.ID]
		if !ok {
			t.Fatalf("recovered unexpected item id=%d", it.ID)
		}
		if it.Pri != w.Pri || !bytes.Equal(it.Value, w.Value) {
			t.Fatalf("item id=%d: got pri=%d value=%q, want pri=%d value=%q",
				it.ID, it.Pri, it.Value, w.Pri, w.Value)
		}
	}
}

// mustAppendInsert appends n single-item insert records and returns them.
func mustAppendInsert(t *testing.T, l *Log, n int) []Item {
	t.Helper()
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		id := l.AllocIDs(1)
		it := Item{ID: id, Pri: uint32(i % 7), Value: []byte(fmt.Sprintf("v-%d", id))}
		if err := l.AppendInsert([]Item{it}); err != nil {
			t.Fatalf("AppendInsert: %v", err)
		}
		items = append(items, it)
	}
	return items
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, nil)
	if len(rec.Items) != 0 || rec.Replayed != 0 || rec.Torn {
		t.Fatalf("fresh log recovered %+v", rec)
	}

	items := mustAppendInsert(t, l, 20)
	// Delete a few, including a batch.
	if err := l.AppendDelete([]uint64{items[0].ID}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDelete([]uint64{items[3].ID, items[4].ID, items[5].ID}); err != nil {
		t.Fatal(err)
	}
	// A batch insert record too.
	first := l.AllocIDs(3)
	batch := []Item{
		{ID: first, Pri: 2, Value: []byte("b0")},
		{ID: first + 1, Pri: 9, Value: nil},
		{ID: first + 2, Pri: 0, Value: bytes.Repeat([]byte("x"), 300)},
	}
	if err := l.AppendInsert(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	want := liveMap(items)
	delete(want, items[0].ID)
	delete(want, items[3].ID)
	delete(want, items[4].ID)
	delete(want, items[5].ID)
	for _, it := range batch {
		want[it.ID] = it
	}

	l2, rec2 := openT(t, dir, nil)
	defer l2.Close()
	checkItems(t, rec2.Items, want)
	if rec2.Torn {
		t.Fatal("clean log reported torn tail")
	}
	// 20 single inserts + 1 single delete + 1 batch delete + 1 batch insert.
	if rec2.Replayed != 23 {
		t.Fatalf("replayed %d records, want 23", rec2.Replayed)
	}
	// Recovered items come back sorted by id (deterministic load order).
	for i := 1; i < len(rec2.Items); i++ {
		if rec2.Items[i-1].ID >= rec2.Items[i].ID {
			t.Fatalf("recovered items not sorted by id at %d", i)
		}
	}
	// Ids keep advancing after reopen: no reuse of durable ids.
	if id := l2.AllocIDs(1); id < first+3 {
		t.Fatalf("id %d reused after reopen (want >= %d)", id, first+3)
	}
}

func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.Policy = SyncAlways })

	const workers, per = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := l.AllocIDs(1)
				it := Item{ID: id, Pri: uint32(w), Value: []byte{byte(w), byte(i)}}
				if err := l.AppendInsert([]Item{it}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}

	st := l.Stats()
	if st.Appends != workers*per {
		t.Fatalf("appends = %d, want %d", st.Appends, workers*per)
	}
	if st.Syncs == 0 || st.Syncs > st.Appends {
		t.Fatalf("syncs = %d (appends %d): every append must be covered by a sync, batched or not",
			st.Syncs, st.Appends)
	}
	t.Logf("group commit: %d appends amortized over %d fsyncs", st.Appends, st.Syncs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	if len(rec.Items) != workers*per {
		t.Fatalf("recovered %d items, want %d", len(rec.Items), workers*per)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) {
		o.Policy = SyncInterval
		o.Interval = time.Millisecond
	})
	defer l.Close()
	mustAppendInsert(t, l, 10)
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval policy never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSegmentRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 1 << 10 })
	items := mustAppendInsert(t, l, 200) // ~30 bytes/record: many segments

	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if got := len(segFiles(t, dir)); got != l.Stats().Segments {
		t.Fatalf("stats say %d segments, disk has %d", l.Stats().Segments, got)
	}

	// A snapshot covers every sealed segment, so retention deletes them
	// all: only the fresh post-rotation segment remains.
	before := l.Stats().Segments
	if err := l.Snapshot(items); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	st := l.Stats()
	if st.Segments >= before {
		t.Fatalf("retention did not shrink segments: %d -> %d", before, st.Segments)
	}
	if st.Snapshots != 1 {
		t.Fatalf("snapshots = %d, want 1", st.Snapshots)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	checkItems(t, rec.Items, liveMap(items))
	if rec.Replayed != 0 {
		t.Fatalf("boot after snapshot replayed %d records, want 0", rec.Replayed)
	}
	if rec.SnapshotLSN == 0 {
		t.Fatal("boot did not load the snapshot")
	}
}

func TestSnapshotCoversTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	base := mustAppendInsert(t, l, 10)
	if err := l.Snapshot(base); err != nil {
		t.Fatal(err)
	}
	tail := mustAppendInsert(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	if rec.Replayed != 5 {
		t.Fatalf("replayed %d records, want only the 5 post-snapshot ones", rec.Replayed)
	}
	want := liveMap(base)
	for _, it := range tail {
		want[it.ID] = it
	}
	checkItems(t, rec.Items, want)
}

func TestSnapshotFallbackWhenNewestCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	base := mustAppendInsert(t, l, 8)
	if err := l.Snapshot(base); err != nil {
		t.Fatal(err)
	}
	tail := mustAppendInsert(t, l, 4)
	all := append(append([]Item(nil), base...), tail...)
	if err := l.Snapshot(all); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot; boot must fall back to the older one
	// and find the records between the two still on disk (retention keeps
	// segments for the oldest retained snapshot, exactly for this).
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshots, got %v (%v)", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	checkItems(t, rec.Items, liveMap(all))
	if rec.Replayed == 0 {
		t.Fatal("fallback boot should have replayed the log between the snapshots")
	}
}

// buildLog writes n single-insert records and closes the log cleanly,
// returning the items and the (single) segment file.
func buildLog(t *testing.T, dir string, n int) ([]Item, string) {
	t.Helper()
	l, _ := openT(t, dir, nil)
	items := mustAppendInsert(t, l, n)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	return items, segs[0]
}

func TestTornTailTruncatedRecord(t *testing.T) {
	dir := t.TempDir()
	items, seg := buildLog(t, dir, 12)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the final record.
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	l, rec := openT(t, dir, nil)
	if !rec.Torn {
		t.Fatal("truncated tail not reported as torn")
	}
	checkItems(t, rec.Items, liveMap(items[:11]))

	// The damaged suffix is gone and the log accepts new records.
	more := mustAppendInsert(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec2 := openT(t, dir, nil)
	defer l2.Close()
	want := liveMap(items[:11])
	for _, it := range more {
		want[it.ID] = it
	}
	checkItems(t, rec2.Items, want)
	if rec2.Torn {
		t.Fatal("torn flag persisted after the tail was repaired")
	}
}

func TestTornTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	items, seg := buildLog(t, dir, 12)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // flip a bit inside the last record's value
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, rec := openT(t, dir, nil)
	defer l.Close()
	if !rec.Torn {
		t.Fatal("bit flip not reported as torn")
	}
	checkItems(t, rec.Items, liveMap(items[:11]))
}

func TestTornTailZeroFill(t *testing.T) {
	dir := t.TempDir()
	items, seg := buildLog(t, dir, 12)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A power cut can leave preallocated-but-unwritten zero pages.
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	goodSize := mustSize(t, seg) - 4096

	l, rec := openT(t, dir, nil)
	defer l.Close()
	if !rec.Torn {
		t.Fatal("zero-filled tail not reported as torn")
	}
	checkItems(t, rec.Items, liveMap(items)) // every real record survives
	if got := mustSize(t, seg); got != goodSize {
		t.Fatalf("zero fill not truncated: size %d, want %d", got, goodSize)
	}
}

func mustSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestDamagedMiddleSegmentDropsOrphans(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	items := mustAppendInsert(t, l, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Corrupt the second segment: replay must stop there and retire the
	// later segments (their records depend on the lost ones).
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[recHeader+2] ^= 0xff
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	if !rec.Torn {
		t.Fatal("mid-log damage not reported as torn")
	}
	if len(rec.Items) >= len(items) {
		t.Fatalf("recovered %d items, expected fewer than %d", len(rec.Items), len(items))
	}
	// Only a prefix of the inserts can have survived.
	for i, it := range rec.Items {
		want := items[i]
		if it.ID != want.ID || !bytes.Equal(it.Value, want.Value) {
			t.Fatalf("recovered item %d = id %d, want prefix item id %d", i, it.ID, want.ID)
		}
	}
	if got := len(segFiles(t, dir)); got > 2 {
		t.Fatalf("orphaned segments not removed: %d files remain", got)
	}
}

// TestCoveredDamageKeepsLaterSegments: damage inside a sealed segment
// wholly covered by the newest snapshot must not drop the intact later
// segments — the lost records' effects are already in the snapshot, so
// replay continues through them and the acked post-snapshot records
// survive. (Regression: the orphan-drop path used to fire here and
// lose the whole tail.)
func TestCoveredDamageKeepsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	base := mustAppendInsert(t, l, 10) // lsn 1..10
	if err := l.Snapshot(base); err != nil {
		t.Fatal(err)
	}
	mid := mustAppendInsert(t, l, 20) // lsn 11..30, spans several segments
	all := append(append([]Item(nil), base...), mid...)
	if err := l.Snapshot(all); err != nil {
		t.Fatal(err) // snap@30; mid segments stay for the snap@10 fallback
	}
	tail := mustAppendInsert(t, l, 5) // lsn 31..35
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v", segs)
	}
	// Corrupt the first record of the oldest remaining segment: all its
	// records predate the newest snapshot, and its successor still
	// chains from below that snapshot's LSN.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[recHeader+2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	if !rec.Torn {
		t.Fatal("covered damage not reported as torn")
	}
	want := liveMap(all)
	for _, it := range tail {
		want[it.ID] = it
	}
	checkItems(t, rec.Items, want) // nothing acked is lost
	if rec.Replayed != len(tail) {
		t.Fatalf("replayed %d records, want the %d post-snapshot ones", rec.Replayed, len(tail))
	}

	// And the log still appends + survives another boot.
	more := mustAppendInsert(t, l2, 3)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec3 := openT(t, dir, nil)
	defer l3.Close()
	for _, it := range more {
		want[it.ID] = it
	}
	checkItems(t, rec3.Items, want)
	if rec3.Torn {
		t.Fatal("damage reappeared after repair")
	}
}

// TestAppendAfterCoveredTruncationStartsFreshSegment: when replay
// truncates damage in a snapshot-covered region and no segment holds
// nextLSN-1, the log must rotate to a fresh segment named for nextLSN.
// Appending into the truncated file would place the new record after
// an in-file LSN gap, and the NEXT boot would silently truncate it
// away as damage. (Regression.)
func TestAppendAfterCoveredTruncationStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	base := mustAppendInsert(t, l, 10) // lsn 1..10
	if err := l.Snapshot(base); err != nil {
		t.Fatal(err) // snap@10
	}
	mid := mustAppendInsert(t, l, 10) // lsn 11..20
	all := append(append([]Item(nil), base...), mid...)
	if err := l.Snapshot(all); err != nil {
		t.Fatal(err) // snap@20, rotates to an empty active segment
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Lose the empty active segment and corrupt the first record of the
	// sealed one: the surviving record chain now ends below snap@20.
	segs := segFiles(t, dir)
	if len(segs) != 2 {
		t.Fatalf("want 2 segments, got %v", segs)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[recHeader+2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	if !rec.Torn {
		t.Fatal("damage not reported as torn")
	}
	checkItems(t, rec.Items, liveMap(all)) // the snapshot carries everything
	more := mustAppendInsert(t, l2, 3)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	l3, rec3 := openT(t, dir, nil)
	defer l3.Close()
	if rec3.Torn {
		t.Fatal("second boot found damage: post-recovery appends broke LSN continuity")
	}
	want := liveMap(all)
	for _, it := range more {
		want[it.ID] = it
	}
	checkItems(t, rec3.Items, want)
}

// TestWriteFailurePoisonsLog: after a write error the log must refuse
// every subsequent append and snapshot. The failed record's bytes may
// sit in the page cache and become durable anyway, so serving on as if
// the rollback were clean would let post-crash replay diverge from the
// history clients observed.
func TestWriteFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.Policy = SyncAlways })
	items := mustAppendInsert(t, l, 3)
	// Sever the descriptor under the writer: the next write(2) fails.
	l.f.Close()
	if err := l.AppendInsert([]Item{{ID: 100, Pri: 1, Value: []byte("x")}}); err == nil {
		t.Fatal("append on a severed descriptor succeeded")
	}
	if !l.Stats().Failed {
		t.Fatal("stats do not report the poisoned log")
	}
	if err := l.AppendDelete([]uint64{items[0].ID}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failure: %v, want ErrPoisoned", err)
	}
	if err := l.Snapshot(items); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("snapshot after failure: %v, want ErrPoisoned", err)
	}
	if err := l.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("close after failure: %v, want ErrPoisoned", err)
	}
	// Only the pre-failure records were acked, and only they survive.
	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	checkItems(t, rec.Items, liveMap(items))
}

// TestIdleSnapshotKeepsActiveSegment: a snapshot taken with no records
// since the previous rotation must not re-register the active segment
// under a second entry — retention would unlink the live file and every
// append after it would die with the inode. (Regression: found by an
// idle graceful-shutdown leaving a data dir with no segment at all.)
func TestIdleSnapshotKeepsActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	base := mustAppendInsert(t, l, 3)
	if err := l.Snapshot(base); err != nil {
		t.Fatal(err)
	}
	// Idle snapshot: nothing appended since the one above.
	if err := l.Snapshot(base); err != nil {
		t.Fatal(err)
	}
	if len(segFiles(t, dir)) == 0 {
		t.Fatal("idle snapshot deleted the active segment file")
	}
	more := mustAppendInsert(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	want := liveMap(base)
	for _, it := range more {
		want[it.ID] = it
	}
	checkItems(t, rec.Items, want)
	if rec.Replayed != 2 {
		t.Fatalf("replayed %d records, want the 2 post-snapshot appends", rec.Replayed)
	}
}

func TestCloseSemantics(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	mustAppendInsert(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.AppendInsert([]Item{{ID: 99, Pri: 1}}); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.AppendDelete([]uint64{1}); err != ErrClosed {
		t.Fatalf("delete after close: %v, want ErrClosed", err)
	}
}

// FuzzWALReplay round-trips random operation sequences through
// append -> close -> reopen -> replay and checks the recovered multiset
// against an in-memory model.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 0, 3})
	f.Add([]byte{1, 1, 1, 3, 3, 3, 0, 2})
	f.Add(bytes.Repeat([]byte{0, 2}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		dir := t.TempDir()
		l, rec, err := Open(Options{Dir: dir, Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Items) != 0 {
			t.Fatal("fresh dir recovered items")
		}
		model := make(map[uint64]Item)
		var liveIDs []uint64 // insertion order; deletes take from the front
		for i, op := range ops {
			switch op % 4 {
			case 0: // single insert
				id := l.AllocIDs(1)
				it := Item{ID: id, Pri: uint32(op), Value: []byte{op, byte(i)}}
				if err := l.AppendInsert([]Item{it}); err != nil {
					t.Fatal(err)
				}
				model[id] = it
				liveIDs = append(liveIDs, id)
			case 1: // batch insert
				n := int(op%5) + 2
				first := l.AllocIDs(n)
				batch := make([]Item, n)
				for j := 0; j < n; j++ {
					batch[j] = Item{ID: first + uint64(j), Pri: uint32(j), Value: []byte{op, byte(i), byte(j)}}
				}
				if err := l.AppendInsert(batch); err != nil {
					t.Fatal(err)
				}
				for _, it := range batch {
					model[it.ID] = it
					liveIDs = append(liveIDs, it.ID)
				}
			case 2: // single delete
				if len(liveIDs) == 0 {
					continue
				}
				id := liveIDs[0]
				liveIDs = liveIDs[1:]
				if err := l.AppendDelete([]uint64{id}); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
			case 3: // batch delete
				n := int(op%7) + 1
				if n > len(liveIDs) {
					n = len(liveIDs)
				}
				if n == 0 {
					continue
				}
				ids := append([]uint64(nil), liveIDs[:n]...)
				liveIDs = liveIDs[n:]
				if err := l.AppendDelete(ids); err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					delete(model, id)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, rec2, err := Open(Options{Dir: dir, Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if rec2.Torn {
			t.Fatal("cleanly closed log reported torn")
		}
		if len(rec2.Items) != len(model) {
			t.Fatalf("recovered %d items, want %d", len(rec2.Items), len(model))
		}
		for _, it := range rec2.Items {
			w, ok := model[it.ID]
			if !ok {
				t.Fatalf("recovered unexpected id %d", it.ID)
			}
			if it.Pri != w.Pri || !bytes.Equal(it.Value, w.Value) {
				t.Fatalf("id %d mismatch: got (%d,%q) want (%d,%q)", it.ID, it.Pri, it.Value, w.Pri, w.Value)
			}
		}
	})
}
