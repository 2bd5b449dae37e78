// Package wal is pqd's durability subsystem: a segmented, CRC32C-framed
// append-only log of the service's logical queue operations
// (INSERT/INSERT_BATCH/DELETE_MIN/DELETE_MIN_BATCH) plus periodic
// snapshots of the live-item set, so a crashed daemon reconstructs any
// algorithm's queue on boot from snapshot + log tail.
//
// The log records logical promises, not physical structure: an insert
// record carries a durable item id with the priority and value, a
// delete record carries the ids that left the queue. Replay therefore
// maintains a multiset keyed by id, which makes recovery independent of
// the backing algorithm and of the (quiescently consistent) order in
// which overlapping operations really hit the shards.
//
// Commit durability is governed by a SyncPolicy knob:
//
//   - SyncAlways: every Append waits for an fsync covering its record.
//     Concurrent commits are batched by a single writer goroutine into
//     one fsync — group commit — so the cost amortizes under load.
//   - SyncInterval: appends return once written to the OS; a background
//     tick fsyncs every Interval. Bounded post-crash data loss.
//   - SyncNever: the OS decides. Cheapest, weakest.
//
// Segments rotate at SegmentBytes and are deleted once wholly covered
// by a retained snapshot; torn tails (truncated final record, bit
// flips, zero fill) are detected by the per-record CRC and replay stops
// cleanly at the last valid record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pq/internal/obs"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy uint8

const (
	// SyncAlways group-commits: every append waits for an fsync.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer; appends only wait for write(2).
	SyncInterval
	// SyncNever leaves flushing entirely to the OS.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures Open.
type Options struct {
	// Dir holds the segments and snapshots of one queue's log.
	Dir string
	// Policy is the fsync discipline. Default SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval flush period. Default 10ms.
	Interval time.Duration
	// SegmentBytes rotates the active segment past this size.
	// Default 16 MiB.
	SegmentBytes int64
	// SnapshotRetain keeps this many snapshots; segment retention is
	// computed against the oldest retained one so boot can fall back to
	// it if the newest is damaged. Default 2.
	SnapshotRetain int
	// Logger receives recovery and retention diagnostics; nil discards.
	Logger *slog.Logger
	// Metrics, when non-nil, receives fsync wall time and group-commit
	// batch sizes from the writer goroutine (see obs.WALMetrics). The
	// recording path is allocation-free; nil disables it.
	Metrics *obs.WALMetrics
}

func (o *Options) normalize() error {
	if o.Dir == "" {
		return errors.New("wal: Options.Dir is required")
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.SnapshotRetain < 1 {
		o.SnapshotRetain = 2
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return nil
}

// Recovery reports what Open reconstructed.
type Recovery struct {
	// Items is the live multiset: every acked insert not yet deleted.
	Items []Item
	// SnapshotLSN is the log position the loaded snapshot covered
	// (0 when booting from the log alone).
	SnapshotLSN uint64
	// Replayed is how many log records were applied on top of the
	// snapshot; a boot after a graceful shutdown replays zero.
	Replayed int
	// Torn reports that tail damage (truncated record, bit flip, zero
	// fill) was found and replay stopped at the last valid record.
	Torn bool
}

// Stats is a point-in-time summary for STATS plumbing.
type Stats struct {
	Policy               string
	LastLSN              uint64
	SnapshotLSN          uint64
	Segments             int
	WALBytes             int64
	Appends              uint64
	Syncs                uint64
	Snapshots            uint64
	RecordsSinceSnapshot uint64
	RecoveredItems       int
	ReplayedRecords      int
	TornTail             bool
	// Failed reports a poisoned log: a write or fsync error occurred
	// and every subsequent append is refused (see ErrPoisoned).
	Failed bool
}

// ErrClosed reports appends after Close.
var ErrClosed = errors.New("wal: closed")

// ErrPoisoned reports operations on a log that has seen a write or
// fsync failure. Once a record's bytes may have reached the OS but
// their durability is unknown, an in-memory rollback can no longer be
// trusted to match post-crash replay, so the log refuses every
// subsequent append and snapshot — the standard WAL discipline for
// fsync-failure ambiguity.
var ErrPoisoned = errors.New("wal: log poisoned by write/fsync failure")

// segment is one live log file.
type segment struct {
	firstLSN uint64
	path     string
	bytes    int64
}

func segName(firstLSN uint64) string { return fmt.Sprintf("wal-%016x.seg", firstLSN) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
	return v, err == nil
}

// reqKind discriminates writer requests.
type reqKind uint8

const (
	reqAppend reqKind = iota
	reqSync           // interval tick
	reqSnapshot
	reqClose
)

type request struct {
	kind    reqKind
	payload []byte // reqAppend: encoded record payload, LSN unpatched
	items   []Item // reqSnapshot
	done    chan error
}

// Log is one queue's write-ahead log. All methods are safe for
// concurrent use; a single writer goroutine owns the files and batches
// concurrent commits into shared fsyncs.
type Log struct {
	opts Options

	reqs   chan request
	wdone  chan struct{}
	tstop  chan struct{}
	nextID atomic.Uint64

	clMu   sync.RWMutex
	closed bool

	// Writer-owned state.
	f         *os.File
	segs      []segment
	nextLSN   uint64
	failed    error  // sticky ErrPoisoned-wrapped write/fsync failure
	sinceSync uint64 // records appended since the last fsync (group-commit size)

	poisoned atomic.Bool // published copy of failed != nil, for Stats

	// Published for Stats.
	lastLSN   atomic.Uint64
	snapLSN   atomic.Uint64
	walBytes  atomic.Int64
	segCount  atomic.Int64
	appends   atomic.Uint64
	syncs     atomic.Uint64
	snapshots atomic.Uint64
	sinceSnap atomic.Uint64

	recoveredItems int
	replayed       int
	torn           bool
}

// Open recovers the log in opts.Dir (creating it if absent) and starts
// the writer. The returned Recovery carries the reconstructed live-item
// multiset for the caller to load into its queue.
func Open(opts Options) (*Log, Recovery, error) {
	if err := opts.normalize(); err != nil {
		return nil, Recovery{}, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	// A crash mid-snapshot leaves a .tmp file; it was never linked into
	// the recovery chain, so drop it.
	if tmps, err := filepath.Glob(filepath.Join(opts.Dir, "*.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}

	snapLSN, nextID, snapItems := loadNewestSnapshot(opts.Dir, opts.Logger)
	live := make(map[uint64]Item, len(snapItems))
	for _, it := range snapItems {
		live[it.ID] = it
	}

	l := &Log{
		opts:  opts,
		reqs:  make(chan request, 256),
		wdone: make(chan struct{}),
		tstop: make(chan struct{}),
	}
	l.snapLSN.Store(snapLSN)

	rec, err := l.replaySegments(snapLSN, live, &nextID)
	if err != nil {
		return nil, Recovery{}, err
	}
	rec.SnapshotLSN = snapLSN

	rec.Items = make([]Item, 0, len(live))
	for _, it := range live {
		rec.Items = append(rec.Items, it)
	}
	// Deterministic load order (by id = insertion order) keeps restarts
	// reproducible even though the queue itself doesn't care.
	sort.Slice(rec.Items, func(i, j int) bool { return rec.Items[i].ID < rec.Items[j].ID })

	l.nextID.Store(nextID)
	l.recoveredItems = len(rec.Items)
	l.replayed = rec.Replayed
	l.torn = rec.Torn

	go l.writer()
	if opts.Policy == SyncInterval {
		go l.ticker()
	}
	return l, rec, nil
}

// replaySegments scans the on-disk segments, applies records beyond
// snapLSN to live, truncates tail damage, and leaves the log positioned
// for appending. Called once from Open, before the writer starts.
func (l *Log) replaySegments(snapLSN uint64, live map[uint64]Item, nextID *uint64) (Recovery, error) {
	var rec Recovery
	ents, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return rec, err
	}
	var segs []segment
	for _, e := range ents {
		if first, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segment{firstLSN: first, path: filepath.Join(l.opts.Dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })

	lastLSN := snapLSN
	var kept []segment
	endLSN := snapLSN // record-chain end of the last kept segment
	for i := 0; i < len(segs); i++ {
		s := segs[i]
		if s.firstLSN > endLSN+1 && s.firstLSN > snapLSN+1 {
			// The segment neither chains from its predecessor nor from
			// the snapshot: the records in between are gone, so it and
			// everything after it are unreachable.
			rec.Torn = true
			for _, orphan := range segs[i:] {
				l.opts.Logger.Warn("wal: dropping segment after lsn gap",
					"segment", filepath.Base(orphan.path), "after_lsn", endLSN)
				os.Remove(orphan.path)
			}
			break
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return rec, err
		}
		expect := s.firstLSN
		valid, damaged, err := scanSegment(data, func(r record) error {
			if r.lsn != expect {
				// An LSN gap means the file does not line up with its
				// name or its predecessor — treat like tail damage.
				return errTruncated
			}
			expect++
			if r.lsn > snapLSN {
				applyRecord(live, r, nextID)
				rec.Replayed++
				lastLSN = r.lsn
			} else if r.lsn > lastLSN {
				lastLSN = r.lsn
			}
			return nil
		})
		if err != nil {
			if errors.Is(err, errTruncated) {
				damaged = true
			} else {
				return rec, err
			}
		}
		if !damaged {
			s.bytes = int64(len(data))
			kept = append(kept, s)
			endLSN = expect - 1
			continue
		}
		rec.Torn = true
		if err := os.Truncate(s.path, int64(valid)); err != nil {
			return rec, err
		}
		s.bytes = int64(valid)
		kept = append(kept, s)
		endLSN = expect - 1
		// The records lost here are [expect, next.firstLSN). When the
		// next segment chains from at or below snapLSN+1, every lost
		// record's effect is already in the loaded snapshot, so replay
		// safely continues through the later segments. Otherwise they
		// are unreachable (their records' effects may depend on the
		// lost ones) and are retired so appends continue from a
		// consistent position.
		if i+1 < len(segs) && expect <= segs[i+1].firstLSN && segs[i+1].firstLSN <= snapLSN+1 {
			l.opts.Logger.Warn("wal: damage covered by snapshot; keeping later segments",
				"segment", filepath.Base(s.path), "offset", valid, "snapshot_lsn", snapLSN)
			continue
		}
		for _, orphan := range segs[i+1:] {
			l.opts.Logger.Warn("wal: dropping segment orphaned by damage",
				"segment", filepath.Base(orphan.path), "damaged", filepath.Base(s.path))
			os.Remove(orphan.path)
		}
		l.opts.Logger.Warn("wal: tail damage, replay stops",
			"segment", filepath.Base(s.path), "offset", valid, "last_lsn", lastLSN)
		break
	}

	l.nextLSN = lastLSN + 1
	l.lastLSN.Store(lastLSN)

	// Appending is only safe into a file whose record chain ends exactly
	// at nextLSN-1; anything else (truncation into a snapshot-covered
	// region, a tail the OS lost under a weak fsync policy) would put the
	// new record after an in-file LSN gap, and the next boot would
	// truncate it away as damage. Cut over to a fresh segment instead.
	if len(kept) == 0 || endLSN != lastLSN {
		kept = append(kept, segment{firstLSN: l.nextLSN, path: filepath.Join(l.opts.Dir, segName(l.nextLSN))})
	}
	active := &kept[len(kept)-1]
	f, err := os.OpenFile(active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return rec, err
	}
	l.f = f
	l.segs = kept
	var total int64
	for _, s := range kept {
		total += s.bytes
	}
	l.walBytes.Store(total)
	l.segCount.Store(int64(len(kept)))
	return rec, nil
}

// applyRecord folds one replayed record into the live multiset.
func applyRecord(live map[uint64]Item, r record, nextID *uint64) {
	for _, it := range r.items {
		live[it.ID] = it
		if it.ID >= *nextID {
			*nextID = it.ID + 1
		}
	}
	for _, id := range r.ids {
		delete(live, id)
	}
}

// AllocIDs reserves n durable item ids and returns the first. Ids are
// assigned before the insert record is appended so the record can carry
// them.
func (l *Log) AllocIDs(n int) uint64 {
	return l.nextID.Add(uint64(n)) - uint64(n)
}

// AppendInsert logs that items entered the queue. It returns once the
// record is durable per the sync policy; concurrent appends share
// fsyncs (group commit).
func (l *Log) AppendInsert(items []Item) error {
	if len(items) == 0 {
		return nil
	}
	return l.submit(request{kind: reqAppend, payload: encodeInsert(items), done: make(chan error, 1)})
}

// AppendDelete logs that the items with these durable ids left the
// queue, with the same durability contract as AppendInsert.
func (l *Log) AppendDelete(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	return l.submit(request{kind: reqAppend, payload: encodeDelete(ids), done: make(chan error, 1)})
}

// Snapshot durably writes the full live-item set (the caller must have
// quiesced mutations so items is consistent with everything appended),
// then rotates the active segment and deletes segments and snapshots
// made redundant by retention.
func (l *Log) Snapshot(items []Item) error {
	return l.submit(request{kind: reqSnapshot, items: items, done: make(chan error, 1)})
}

// Close seals the log: outstanding appends complete, the active
// segment is fsynced, and the files are closed.
func (l *Log) Close() error {
	l.clMu.Lock()
	if l.closed {
		l.clMu.Unlock()
		return nil
	}
	l.closed = true
	close(l.tstop)
	req := request{kind: reqClose, done: make(chan error, 1)}
	l.reqs <- req
	l.clMu.Unlock()
	err := <-req.done
	<-l.wdone
	return err
}

func (l *Log) submit(req request) error {
	l.clMu.RLock()
	if l.closed {
		l.clMu.RUnlock()
		return ErrClosed
	}
	l.reqs <- req
	l.clMu.RUnlock()
	return <-req.done
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Policy:               l.opts.Policy.String(),
		LastLSN:              l.lastLSN.Load(),
		SnapshotLSN:          l.snapLSN.Load(),
		Segments:             int(l.segCount.Load()),
		WALBytes:             l.walBytes.Load(),
		Appends:              l.appends.Load(),
		Syncs:                l.syncs.Load(),
		Snapshots:            l.snapshots.Load(),
		RecordsSinceSnapshot: l.sinceSnap.Load(),
		RecoveredItems:       l.recoveredItems,
		ReplayedRecords:      l.replayed,
		TornTail:             l.torn,
		Failed:               l.poisoned.Load(),
	}
}

// ticker drives SyncInterval flushes.
func (l *Log) ticker() {
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.tstop:
			return
		case <-t.C:
			select {
			case l.reqs <- request{kind: reqSync}:
			default: // writer busy; the next tick will catch up
			}
		}
	}
}

// writer is the single goroutine owning the log files. It drains
// whatever requests are immediately available, writes them as one
// batch, fsyncs once if the policy demands it, and only then completes
// every request in the batch — the group commit.
func (l *Log) writer() {
	defer close(l.wdone)
	batch := make([]request, 0, 64)
	for req := range l.reqs {
		batch = append(batch[:0], req)
	drain:
		for len(batch) < cap(batch) {
			select {
			case r2 := <-l.reqs:
				batch = append(batch, r2)
			default:
				break drain
			}
		}
		closing := l.handleBatch(batch)
		if closing {
			return
		}
	}
}

// poison marks the log permanently failed after a write or fsync
// error. The failed bytes may already sit in the OS page cache and
// become durable anyway, so continuing to append (or to roll back in
// memory) would let post-crash replay diverge from the history clients
// observed; refusing everything keeps the two consistent.
func (l *Log) poison(err error) {
	if l.failed != nil {
		return
	}
	l.failed = fmt.Errorf("%w: %v", ErrPoisoned, err)
	l.poisoned.Store(true)
	l.opts.Logger.Error("wal: refusing all further appends", "err", l.failed)
}

// handleBatch processes one drained batch; it reports true once a
// close request has been honored.
func (l *Log) handleBatch(batch []request) (closing bool) {
	if l.failed != nil {
		for _, r := range batch {
			switch r.kind {
			case reqAppend, reqSnapshot:
				r.done <- l.failed
			case reqClose:
				// No final fsync: after an fsync failure the kernel may
				// have dropped the dirty pages, and a "successful" retry
				// would only hide that. Just release the file.
				l.f.Close()
				r.done <- l.failed
				closing = true
			}
		}
		return closing
	}

	var appendErr error
	needSync := false
	wrote := false

	// Phase 1: write every append in the batch.
	var buf []byte
	var pending []request
	flush := func() {
		if len(buf) == 0 {
			return
		}
		if appendErr == nil {
			_, appendErr = l.f.Write(buf)
			if appendErr == nil {
				seg := &l.segs[len(l.segs)-1]
				seg.bytes += int64(len(buf))
				l.walBytes.Add(int64(len(buf)))
				wrote = true
			}
		}
		buf = buf[:0]
	}
	for _, r := range batch {
		switch r.kind {
		case reqAppend:
			if appendErr != nil {
				r.done <- appendErr
				continue
			}
			if l.segs[len(l.segs)-1].bytes+int64(len(buf)) > l.opts.SegmentBytes {
				flush()
				if appendErr == nil {
					appendErr = l.rotate()
				}
				if appendErr != nil {
					r.done <- appendErr
					continue
				}
			}
			buf = appendRecord(buf, r.payload, l.nextLSN)
			l.nextLSN++
			l.appends.Add(1)
			l.sinceSnap.Add(1)
			l.sinceSync++
			pending = append(pending, r)
		case reqSync:
			needSync = true
		case reqSnapshot, reqClose:
			// Handled in phase 2, after pending appends are resolved.
		}
	}
	flush()
	if appendErr == nil && wrote {
		l.lastLSN.Store(l.nextLSN - 1)
	}

	// Phase 2: make the batch durable per policy, then release waiters.
	if appendErr == nil && wrote && (l.opts.Policy == SyncAlways || needSync) {
		appendErr = l.sync()
	} else if needSync && !wrote && l.opts.Policy == SyncInterval {
		if err := l.sync(); err != nil {
			l.poison(err) // tick with nothing new: cheap, keeps the tail bounded
		}
	}
	if appendErr != nil {
		l.poison(appendErr)
	}
	for _, r := range pending {
		r.done <- appendErr
	}

	// Phase 3: snapshots and close, now that the log position is fixed.
	for _, r := range batch {
		switch r.kind {
		case reqSnapshot:
			if l.failed != nil {
				r.done <- l.failed
			} else {
				r.done <- l.snapshotNow(r.items)
			}
		case reqClose:
			err := l.failed
			if err == nil {
				err = l.sync()
			}
			if cerr := l.f.Close(); err == nil {
				err = cerr
			}
			r.done <- err
			closing = true
		}
	}
	return closing
}

// appendRecord frames one payload (patching in its LSN) onto buf.
func appendRecord(buf, payload []byte, lsn uint64) []byte {
	binary.BigEndian.PutUint64(payload[lsnOffset:], lsn)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

func (l *Log) sync() error {
	var t0 time.Time
	m := l.opts.Metrics
	if m != nil && m.FsyncNanos != nil {
		t0 = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if m != nil {
		if m.FsyncNanos != nil {
			m.FsyncNanos.Observe(0, time.Since(t0).Nanoseconds())
		}
		// Records this fsync made durable — the group-commit batch
		// size. Interval/never ticks with nothing new record a 0,
		// which is itself informative (idle flushes).
		if m.CommitRecords != nil {
			m.CommitRecords.Observe(0, int64(l.sinceSync))
		}
	}
	l.sinceSync = 0
	l.syncs.Add(1)
	return nil
}

// rotate seals the active segment and opens a fresh one starting at
// nextLSN.
func (l *Log) rotate() error {
	if last := &l.segs[len(l.segs)-1]; last.bytes == 0 && last.firstLSN == l.nextLSN {
		// Already cut at this boundary (e.g. a snapshot with no records
		// since the previous rotation). Rotating again would register a
		// second segment with the SAME path, and retention would then
		// unlink the active file — losing every append written after it.
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	seg := segment{firstLSN: l.nextLSN, path: filepath.Join(l.opts.Dir, segName(l.nextLSN))}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.segs = append(l.segs, seg)
	l.segCount.Store(int64(len(l.segs)))
	syncDir(l.opts.Dir)
	return nil
}

// snapshotNow writes a snapshot covering everything appended so far,
// rotates so the tail is cut at the snapshot boundary, and applies
// retention. Runs on the writer goroutine.
func (l *Log) snapshotNow(items []Item) error {
	lsn := l.nextLSN - 1
	if err := l.sync(); err != nil {
		l.poison(err) // the log file's own fsync failed, not the snapshot's
		return l.failed
	}
	if err := writeSnapshotFile(l.opts.Dir, lsn, l.nextID.Load(), items); err != nil {
		return err // tmp file discarded; the log itself is still sound
	}
	l.snapshots.Add(1)
	l.snapLSN.Store(lsn)
	l.sinceSnap.Store(0)
	if err := l.rotate(); err != nil {
		l.poison(err)
		return l.failed
	}
	l.retain()
	return nil
}

// retain deletes snapshots beyond SnapshotRetain and segments wholly
// covered by the oldest retained snapshot (so a fallback boot from that
// snapshot still finds every record it needs).
func (l *Log) retain() {
	lsns, err := listSnapshots(l.opts.Dir)
	if err != nil {
		return
	}
	for len(lsns) > l.opts.SnapshotRetain {
		os.Remove(filepath.Join(l.opts.Dir, snapName(lsns[0])))
		lsns = lsns[1:]
	}
	if len(lsns) == 0 {
		return
	}
	coverLSN := lsns[0]
	kept := l.segs[:0]
	for i := range l.segs {
		covered := i+1 < len(l.segs) && l.segs[i+1].firstLSN <= coverLSN+1
		if covered {
			l.walBytes.Add(-l.segs[i].bytes)
			if err := os.Remove(l.segs[i].path); err != nil {
				l.opts.Logger.Warn("wal: retention failed", "err", err)
			}
		} else {
			kept = append(kept, l.segs[i])
		}
	}
	l.segs = kept
	l.segCount.Store(int64(len(l.segs)))
	syncDir(l.opts.Dir)
}
