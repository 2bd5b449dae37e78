// Package server hosts the native priority queues behind a TCP
// endpoint speaking the wire protocol (see internal/wire): a registry
// of named queues, each backed by any pq.Algorithm with optional
// priority-range sharding, admission control via the paper's bounded
// fetch-and-decrement counter (shedding with RETRY_AFTER instead of
// queueing unboundedly), one goroutine per connection that flushes
// each pipelined burst of responses from one buffer in one write, and
// graceful drain.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pq"
	"pq/internal/obs"
	"pq/internal/wal"
	"pq/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// RetryAfterMillis is the backoff hint sent with shed requests.
	// Default 2.
	RetryAfterMillis int
	// Concurrency sizes the funnel layers of the backing queues and
	// admission counters; default GOMAXPROCS.
	Concurrency int
	// Logger receives structured serving diagnostics (connection ids,
	// queue names, WAL recovery and poison events, slow-op warnings).
	// nil discards them.
	Logger *slog.Logger
	// SlowOp logs any queue mutation that took longer than this at
	// Warn level and counts it in pq_queue_slow_ops_total. 0 disables
	// slow-op logging.
	SlowOp time.Duration
	// AllowRelaxed permits queues backed by relaxed algorithms
	// (pq.MultiQueue): delete-min may return an item while strictly
	// better items remain queued. Off by default so a client that
	// expects exact priority order can never be handed a relaxed queue
	// by a configuration slip; pqd exposes it as -relaxed.
	AllowRelaxed bool

	// DataDir, when set, makes every queue durable: each keeps a
	// segmented write-ahead log plus snapshots under DataDir/<name>,
	// inserts are logged before they are acknowledged, pops log the
	// exact items delivered, and AddQueue replays snapshot + log tail
	// so a restart reconstructs the queue. Empty disables durability.
	DataDir string
	// Fsync is the log's sync policy (see wal.SyncPolicy); the zero
	// value is wal.SyncAlways, group-committed.
	Fsync wal.SyncPolicy
	// FsyncInterval is the wal.SyncInterval flush period. Default 10ms.
	FsyncInterval time.Duration
	// SnapshotEvery takes an automatic snapshot each time the log grows
	// by that many records. Default 100000; negative disables automatic
	// snapshots (graceful shutdown still takes a final one).
	SnapshotEvery int
	// SegmentBytes rotates log segments past this size. Default 16 MiB.
	SegmentBytes int64
}

func (c *Config) normalize() {
	if c.RetryAfterMillis <= 0 {
		c.RetryAfterMillis = 2
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 100000
	}
}

// Server is a pqd serving instance.
type Server struct {
	cfg Config

	mu     sync.RWMutex
	queues map[string]*servedQueue

	lnMu     sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	connsWG  sync.WaitGroup
	shutdown atomic.Bool

	// met aggregates protocol-level series. nextConnID numbers
	// connections for log correlation and doubles as the metric stripe
	// hint.
	met        *serverMetrics
	nextConnID atomic.Uint64

	// cluster, when set (SetClusterMap), makes this server one node of
	// a multi-node deployment: inserts outside its owned priority
	// ranges are NACKed with TWrongNode and the map is served in STATS.
	cluster atomic.Pointer[clusterState]
}

// New builds a server with no queues; add them with AddQueue before
// serving.
func New(cfg Config) *Server {
	cfg.normalize()
	return &Server{
		cfg:    cfg,
		queues: make(map[string]*servedQueue),
		conns:  make(map[net.Conn]struct{}),
		met:    newServerMetrics(cfg.Concurrency),
	}
}

// AddQueue registers a queue. It may be called while serving; the name
// must be unused. With Config.DataDir set, the queue's write-ahead log
// under DataDir/<name> is opened (or created) and its snapshot + log
// tail are replayed into the fresh queue before it serves traffic.
func (s *Server) AddQueue(spec QueueSpec) error {
	if s.cfg.DataDir != "" {
		if strings.ContainsAny(spec.Name, "/\\") || spec.Name == "." || spec.Name == ".." {
			return fmt.Errorf("server: durable queue name %q must be a plain directory name", spec.Name)
		}
	}
	if cl := s.cluster.Load(); cl != nil && spec.Priorities != cl.m.Priorities {
		return fmt.Errorf("server: queue %q spans %d priorities but the cluster map covers %d; every queue on a cluster node must span the map's full priority space",
			spec.Name, spec.Priorities, cl.m.Priorities)
	}
	if pq.IsRelaxed(spec.Algorithm) && !s.cfg.AllowRelaxed {
		return fmt.Errorf("server: queue %q: algorithm %q relaxes delete-min ordering (better items may remain queued when an item is delivered); set Config.AllowRelaxed (pqd -relaxed) to serve it",
			spec.Name, spec.Algorithm)
	}
	q, err := newServedQueue(spec, s.cfg.Concurrency)
	if err != nil {
		return err
	}
	if s.cfg.DataDir != "" {
		// One stripe: the wal writer goroutine is the only recorder.
		q.walMet = &obs.WALMetrics{
			FsyncNanos:    obs.NewHistogram(1, obs.LatencyMinShift, obs.LatencyMaxShift),
			CommitRecords: obs.NewHistogram(1, 0, 20),
		}
		l, rec, err := wal.Open(wal.Options{
			Dir:          filepath.Join(s.cfg.DataDir, spec.Name),
			Policy:       s.cfg.Fsync,
			Interval:     s.cfg.FsyncInterval,
			SegmentBytes: s.cfg.SegmentBytes,
			Logger:       s.cfg.Logger.With("queue", spec.Name),
			Metrics:      q.walMet,
		})
		if err != nil {
			return fmt.Errorf("server: queue %q: %w", spec.Name, err)
		}
		if err := q.attachWAL(l, rec, s.cfg.SnapshotEvery); err != nil {
			l.Close()
			return err
		}
		s.cfg.Logger.Info("queue recovered",
			"queue", spec.Name, "fsync", s.cfg.Fsync.String(), "items", len(rec.Items),
			"snapshot_lsn", rec.SnapshotLSN, "replayed_records", rec.Replayed, "torn_tail", rec.Torn)
		if over := q.admitOverflow.Load(); over > 0 {
			s.cfg.Logger.Warn("recovered items exceed capacity; admission stays closed until occupancy drops below the bound",
				"queue", spec.Name, "over", over, "capacity", spec.Capacity)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.queues[q.spec.Name]; dup {
		if q.wal != nil {
			q.wal.Close()
		}
		return fmt.Errorf("server: queue %q already registered", q.spec.Name)
	}
	s.queues[q.spec.Name] = q
	return nil
}

func (s *Server) lookup(name string) *servedQueue {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.queues[name]
}

// lookupB is lookup for a queue name still aliasing the request frame.
// The conversion sits inside the index expression so the compiler's
// map-lookup-by-[]byte optimization elides the string allocation.
func (s *Server) lookupB(name []byte) *servedQueue {
	s.mu.RLock()
	q := s.queues[string(name)]
	s.mu.RUnlock()
	return q
}

// QueueStats snapshots one queue's counters (for tests and the
// daemon's exit report).
func (s *Server) QueueStats(name string) (wire.QueueStats, bool) {
	q := s.lookup(name)
	if q == nil {
		return wire.QueueStats{}, false
	}
	st := q.stats()
	st.Cluster = s.clusterStats()
	return st, true
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln until Shutdown or Close.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.shutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.lnMu.Lock()
		if s.shutdown.Load() {
			s.lnMu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.connsWG.Add(1)
		s.lnMu.Unlock()
		go s.serveConn(c)
	}
}

// Addr reports the listening address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains gracefully: stop accepting, mark every queue
// draining (inserts shed with RETRY_AFTER, delete-mins keep working so
// clients can empty the queues), then wait until every connection has
// closed or ctx expires, at which point remaining connections are
// severed. Queues with a WAL attached then take a final snapshot and
// seal their segments, so the next boot replays zero log records.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdown.Store(true)
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()

	s.mu.RLock()
	for _, q := range s.queues {
		q.draining.Store(true)
	}
	s.mu.RUnlock()

	done := make(chan struct{})
	go func() {
		s.connsWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.closeConns()
		<-done
		err = ctx.Err()
	}
	if serr := s.sealWALs(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// Close severs everything immediately. WAL files are closed (appends
// already acknowledged are on disk) but no final snapshot is taken —
// the next boot replays the log tail, exactly as after a crash.
func (s *Server) Close() error {
	s.shutdown.Store(true)
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()
	s.closeConns()
	s.connsWG.Wait()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, q := range s.queues {
		if q.wal != nil {
			q.wal.Close()
		}
	}
	return nil
}

// sealWALs snapshots and closes every durable queue's log.
func (s *Server) sealWALs() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var err error
	for _, q := range s.queues {
		if serr := q.sealWAL(); serr != nil && err == nil {
			err = fmt.Errorf("server: queue %q: seal: %w", q.spec.Name, serr)
		}
	}
	return err
}

func (s *Server) closeConns() {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

func (s *Server) dropConn(c net.Conn) {
	c.Close()
	s.lnMu.Lock()
	delete(s.conns, c)
	s.lnMu.Unlock()
	s.connsWG.Done()
}

// connState carries one connection's identity through the request
// path: the id correlates log lines and picks metric stripes.
type connState struct {
	id  uint64
	log *slog.Logger
}

// countingReader taps a connection's read stream into the protocol
// byte counter without touching buffering behaviour. The write side is
// counted by respWriter.flush.
type countingReader struct {
	r    io.Reader
	n    *obs.Counter
	hint uint64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.n.Add(cr.hint, int64(n))
	}
	return n, err
}

// maxBatch caps how many requests one connection handles between
// response flushes, so a client that keeps its pipeline full still
// sees its responses at a steady pace.
const maxBatch = 64

// serveConn runs one connection in one goroutine: read a frame, handle
// it, recycle its payload, and flush the response writer once the next
// frame is not already complete in the read buffer or maxBatch requests
// have been handled since the last flush. Whatever the client pipelined
// goes back as one Write of one buffer, and no request crosses a
// goroutine.
//
// Buffer ownership along the path: the FrameReader hands each request
// a pooled payload buffer, recycled right after handle returns —
// everything a request retains (an inserted item) was copied into a
// queue envelope by then, and responses copy item values out of queue
// envelopes into the writer's own buffer, never referencing the
// request payload.
func (s *Server) serveConn(c net.Conn) {
	defer s.dropConn(c)

	cs := connState{id: s.nextConnID.Add(1)}
	cs.log = s.cfg.Logger.With("conn", cs.id, "remote", c.RemoteAddr().String())
	s.met.connsAccepted.Add(1)
	s.met.connsActive.Add(1)
	defer s.met.connsActive.Add(-1)
	br := getConnReader(&countingReader{r: c, n: s.met.bytesRead, hint: cs.id})
	defer putConnReader(br)
	w := newRespWriter(c, s.met, cs.id)
	defer w.release()

	var fr wire.FrameReader
	var n int
	for {
		f, perr := fr.ReadFrame(br)
		if perr != nil && !errors.Is(perr, wire.ErrBadVersion) && !errors.Is(perr, wire.ErrBadFlags) {
			if !errors.Is(perr, net.ErrClosed) && !isEOF(perr) {
				cs.log.Warn("read failed", "err", perr)
			}
			w.flush() // best effort: the connection ends either way
			return
		}
		s.met.framesRead.Inc(cs.id)
		if perr != nil {
			s.met.resyncs.Inc(cs.id)
		}
		err := s.handle(f, perr, w, cs)
		wire.PutBuf(f.Payload)
		if err != nil {
			cs.log.Warn("write failed", "err", err)
			return
		}
		n++
		if n < maxBatch && frameBuffered(br) {
			continue
		}
		if err := w.flush(); err != nil {
			return
		}
		s.met.framesWritten.Add(cs.id, int64(n))
		s.met.pipelineDepth.Observe(cs.id, int64(n))
		n = 0
	}
}

// frameBuffered reports whether br already holds the whole next frame,
// so reading it cannot block. Buffered is tested before Peek because
// Peek blocks until the bytes it asks for arrive. The 12-byte minimum
// (length prefix plus header) also covers a malformed length below the
// header size, which FrameReader rejects only after reading 12 bytes.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 12 {
		return false
	}
	hdr, _ := br.Peek(4)
	return br.Buffered() >= 4+int(binary.BigEndian.Uint32(hdr))
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// reply appends one response frame with a pre-built payload to the
// connection's response writer — the cold-path helper (errors, stats
// JSON). Hot paths append their payloads straight into the writer's
// buffer via beginFrame/endFrame instead.
func reply(w *respWriter, id uint32, t wire.Type, payload []byte) error {
	buf, off := w.beginFrame(t, id, len(payload))
	buf = append(buf, payload...)
	return w.endFrame(buf, off)
}

func (s *Server) replyErr(w *respWriter, id uint32, format string, args ...any) error {
	return reply(w, id, wire.TError, wire.ErrorMsg{Msg: fmt.Sprintf(format, args...)}.Append(nil))
}

func (s *Server) replyRetry(w *respWriter, id uint32) error {
	buf, off := w.beginFrame(wire.TRetryAfter, id, fixedPayload)
	buf = wire.RetryAfter{Millis: uint32(s.cfg.RetryAfterMillis)}.Append(buf)
	return w.endFrame(buf, off)
}

// opDone finishes one timed queue operation: count it, record the
// latency, and log it when it crossed the slow-op threshold.
func (s *Server) opDone(q *servedQueue, op qOp, t0 time.Time, cs connState) {
	m := q.met
	m.ops[op].Inc(cs.id)
	if m.lat[op] == nil {
		return // counted but not timed (stats, drain)
	}
	d := time.Since(t0)
	m.lat[op].Observe(cs.id, d.Nanoseconds())
	if s.cfg.SlowOp > 0 && d >= s.cfg.SlowOp {
		m.slowOps.Add(1)
		cs.log.Warn("slow op", "queue", q.spec.Name, "op", qOpNames[op], "duration", d)
	}
}

// durFailed notes a mutation refused with a durability error — the
// signal that the queue's WAL is poisoned and ops stopped serving.
func (q *servedQueue) durFailed(cs connState, op string, err error) {
	q.durErrors.Add(1)
	cs.log.Error("durability failure", "queue", q.spec.Name, "op", op, "err", err)
}

// handle processes one request frame and writes its single response.
// Request decoding uses the zero-copy views — queue names and item
// values alias f.Payload — so everything a request hands the queue is
// copied into a pooled envelope before handle returns, and the caller
// recycles the payload right after. protoErr is a recoverable per-frame
// protocol error (bad version or flags): the frame was consumed from the
// stream, and handle replies TError instead of dispatching it.
func (s *Server) handle(f wire.Frame, protoErr error, w *respWriter, cs connState) error {
	if protoErr != nil {
		return s.replyErr(w, f.ID, "%v (frame version %d, flags ignored until version matches)", protoErr, f.Version)
	}
	switch f.Type {
	case wire.TInsert:
		m, err := wire.DecodeInsertView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad INSERT: %v", err)
		}
		if len(m.Item.Value) > wire.MaxValue {
			return s.replyErr(w, f.ID, "value %d bytes exceeds limit %d", len(m.Item.Value), wire.MaxValue)
		}
		q := s.lookupB(m.Queue)
		if q == nil {
			return s.replyErr(w, f.ID, "no such queue %q", m.Queue)
		}
		if cl := s.cluster.Load(); cl != nil &&
			int(m.Item.Pri) < q.spec.Priorities && !cl.owns(int(m.Item.Pri)) {
			return s.replyWrongNode(w, f.ID, cl, int(m.Item.Pri))
		}
		t0 := time.Now()
		st, err := q.insert(m.Item)
		s.opDone(q, opInsert, t0, cs)
		switch st {
		case insOK:
			buf, off := w.beginFrame(wire.TInsertOK, f.ID, fixedPayload)
			buf = wire.InsertOK{Accepted: 1}.Append(buf)
			return w.endFrame(buf, off)
		case insShed:
			return s.replyRetry(w, f.ID)
		case insErr:
			q.durFailed(cs, "insert", err)
			return s.replyErr(w, f.ID, "durability: %v", err)
		default:
			return s.replyErr(w, f.ID, "priority %d out of range [0,%d)", m.Item.Pri, q.spec.Priorities)
		}

	case wire.TInsertBatch:
		m, err := wire.DecodeInsertBatchView(f.Payload, nil)
		if err != nil {
			return s.replyErr(w, f.ID, "bad INSERT_BATCH: %v", err)
		}
		q := s.lookupB(m.Queue)
		if q == nil {
			return s.replyErr(w, f.ID, "no such queue %q", m.Queue)
		}
		// Validate the whole batch before admitting any of it, so a
		// batch is either a protocol error or an admitted prefix. The
		// error names the offending index, so the caller can tell which
		// item was bad. A misrouted
		// member NACKs the whole batch un-admitted: the batch is not a
		// prefix-acceptance case, because every member needs re-routing
		// by a client whose map is demonstrably stale.
		cl := s.cluster.Load()
		for i, it := range m.Items {
			if int(it.Pri) >= q.spec.Priorities {
				return s.replyErr(w, f.ID, "item %d: priority %d out of range [0,%d)", i, it.Pri, q.spec.Priorities)
			}
			if len(it.Value) > wire.MaxValue {
				return s.replyErr(w, f.ID, "item %d: value %d bytes exceeds limit %d", i, len(it.Value), wire.MaxValue)
			}
			if cl != nil && !cl.owns(int(it.Pri)) {
				return s.replyWrongNode(w, f.ID, cl, int(it.Pri))
			}
		}
		t0 := time.Now()
		accepted, err := q.insertBatch(m.Items)
		s.opDone(q, opInsertBatch, t0, cs)
		if err != nil {
			q.durFailed(cs, "insert_batch", err)
			return s.replyErr(w, f.ID, "durability: %v", err)
		}
		ok := wire.InsertOK{Accepted: uint32(accepted), Rejected: uint32(len(m.Items) - accepted)}
		if ok.Rejected > 0 {
			ok.RetryAfterMillis = uint32(s.cfg.RetryAfterMillis)
		}
		buf, off := w.beginFrame(wire.TInsertOK, f.ID, fixedPayload)
		buf = ok.Append(buf)
		return w.endFrame(buf, off)

	case wire.TDeleteMin:
		m, err := wire.DecodeQueueReqView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad DELETE_MIN: %v", err)
		}
		q := s.lookupB(m.Queue)
		if q == nil {
			return s.replyErr(w, f.ID, "no such queue %q", m.Queue)
		}
		t0 := time.Now()
		env, ok, err := q.deleteMinEnv()
		s.opDone(q, opDeleteMin, t0, cs)
		if err != nil {
			q.durFailed(cs, "delete_min", err)
			return s.replyErr(w, f.ID, "durability: %v", err)
		}
		if !ok {
			buf, off := w.beginFrame(wire.TEmpty, f.ID, 0)
			return w.endFrame(buf, off)
		}
		return w.itemFrame(f.ID, env, q.tagLen)

	case wire.TDeleteMinBatch:
		m, err := wire.DecodeDeleteMinBatchView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad DELETE_MIN_BATCH: %v", err)
		}
		q := s.lookupB(m.Queue)
		if q == nil {
			return s.replyErr(w, f.ID, "no such queue %q", m.Queue)
		}
		max := int(m.Max)
		if max <= 0 || max > wire.MaxBatchItems {
			return s.replyErr(w, f.ID, "bad DELETE_MIN_BATCH max %d", m.Max)
		}
		// The pop loop is bounded by encoded response bytes as well as
		// max, so the TItems frame always fits under wire.MaxFrame; a
		// short response just means the client should ask again.
		scratch := getEnvs()
		t0 := time.Now()
		envs, err := q.deleteMinBatch(max, wire.MaxPayload, (*scratch)[:0])
		s.opDone(q, opDeleteMinBatch, t0, cs)
		if err != nil {
			putEnvs(scratch)
			q.durFailed(cs, "delete_min_batch", err)
			return s.replyErr(w, f.ID, "durability: %v", err)
		}
		werr := w.itemsFrame(f.ID, envs, q.tagLen)
		*scratch = envs[:0]
		putEnvs(scratch)
		return werr

	case wire.TStats:
		m, err := wire.DecodeQueueReqView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad STATS: %v", err)
		}
		q := s.lookupB(m.Queue)
		if q == nil {
			return s.replyErr(w, f.ID, "no such queue %q", m.Queue)
		}
		s.opDone(q, opStats, time.Time{}, cs)
		st := q.stats()
		st.Cluster = s.clusterStats()
		data, err := json.Marshal(st)
		if err != nil {
			return s.replyErr(w, f.ID, "stats: %v", err)
		}
		return reply(w, f.ID, wire.TStatsReply, data)

	case wire.TDrain:
		m, err := wire.DecodeQueueReqView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad DRAIN: %v", err)
		}
		q := s.lookupB(m.Queue)
		if q == nil {
			return s.replyErr(w, f.ID, "no such queue %q", m.Queue)
		}
		s.opDone(q, opDrain, time.Time{}, cs)
		cs.log.Info("queue draining", "queue", q.spec.Name)
		q.draining.Store(true)
		rem := q.size()
		if rem < 0 {
			rem = 0
		}
		buf, off := w.beginFrame(wire.TDrained, f.ID, fixedPayload)
		buf = wire.Drained{Remaining: uint64(rem)}.Append(buf)
		return w.endFrame(buf, off)

	default:
		return s.replyErr(w, f.ID, "unknown request type %s", f.Type)
	}
}

// WaitDrained polls until every queue is empty or the timeout expires —
// a convenience for the daemon's graceful exit path.
func (s *Server) WaitDrained(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		empty := true
		s.mu.RLock()
		for _, q := range s.queues {
			if q.size() > 0 {
				empty = false
				break
			}
		}
		s.mu.RUnlock()
		if empty {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
