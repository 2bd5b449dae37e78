package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pq/internal/wire"
)

// tracer keeps the traced run's spans in memory; they are written out
// when the run ends. Client spans are recorded by the load loop around
// each pqclient call; server spans by a listener wrapper around the
// in-process server's connections, from the moment a request frame's
// last byte was read to the moment its response frame was written.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	// linkAll indexes every item of an insert frame, not just the
	// first: pqclient coalesces concurrent Insert calls into one
	// INSERT_BATCH frame, and each call links by its own item.
	linkAll bool

	mu     sync.Mutex
	spans  []serverSpan
	byItem map[uint64]int32 // item id -> index into spans

	writes atomic.Int64 // Write calls on traced connections while on
}

// serverSpan is one request as the server handled it.
type serverSpan struct {
	start, end int64 // ns since epoch
	typ        wire.Type
}

func newTracer(linkAll bool) *tracer {
	return &tracer{epoch: time.Now(), linkAll: linkAll, byItem: map[uint64]int32{}}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// serverSpanOf returns the server span that carried item id.
func (t *tracer) serverSpanOf(id uint64) (serverSpan, bool) {
	i, ok := t.byItem[id]
	if !ok {
		return serverSpan{}, false
	}
	return t.spans[i], true
}

// tracingListener hands the server tracedConns.
type tracingListener struct {
	net.Listener
	tr *tracer
}

func (l *tracingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, open: map[uint32]openReq{}}, nil
}

// tracedConn parses the frames crossing one server connection. It
// embeds the net.Conn interface, so the server sees only Read and
// Write: each buffer of a vectored flush arrives as one Write. The
// workloads' values are far below the server's 4 KiB zero-copy splice
// threshold, so every flush is a single buffer and the syscall count
// stays one per flush (trace.writes_per_flush reports it).
type tracedConn struct {
	net.Conn
	tr      *tracer
	in, out frameSplitter
	scratch []wire.Item

	mu   sync.Mutex
	open map[uint32]openReq // request id -> read time and inserted ids
}

type openReq struct {
	start int64
	typ   wire.Type
	items []uint64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := c.tr.now()
		on := c.tr.on.Load()
		c.in.feed(p[:n], isInsert, func(typ wire.Type, id uint32, payload []byte) {
			if on {
				c.requestRead(typ, id, payload, now)
			}
		})
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		now := c.tr.now()
		on := c.tr.on.Load()
		if on {
			c.tr.writes.Add(1)
		}
		c.out.feed(p[:n], carriesItems, func(typ wire.Type, id uint32, payload []byte) {
			if on {
				c.responseWritten(typ, id, payload, now)
			}
		})
	}
	return n, err
}

func isInsert(t wire.Type) bool { return t == wire.TInsert || t == wire.TInsertBatch }

func carriesItems(t wire.Type) bool { return t == wire.TItem || t == wire.TItems }

func (c *tracedConn) requestRead(typ wire.Type, id uint32, payload []byte, now int64) {
	r := openReq{start: now, typ: typ}
	switch typ {
	case wire.TInsert:
		if m, err := wire.DecodeInsertView(payload); err == nil && len(m.Item.Value) >= 8 {
			r.items = []uint64{binary.BigEndian.Uint64(m.Item.Value)}
		}
	case wire.TInsertBatch:
		m, err := wire.DecodeInsertBatchView(payload, c.scratch)
		c.scratch = m.Items
		if err == nil {
			for i, it := range m.Items {
				if len(it.Value) >= 8 && (i == 0 || c.tr.linkAll) {
					r.items = append(r.items, binary.BigEndian.Uint64(it.Value))
				}
			}
		}
	}
	c.mu.Lock()
	c.open[id] = r
	c.mu.Unlock()
}

func (c *tracedConn) responseWritten(typ wire.Type, id uint32, payload []byte, now int64) {
	c.mu.Lock()
	r, ok := c.open[id]
	delete(c.open, id)
	c.mu.Unlock()
	if !ok {
		return // request read before tracing was switched on
	}
	items := r.items
	switch typ {
	case wire.TItem: // pri(4) len(4) value
		if len(payload) >= 16 {
			items = []uint64{binary.BigEndian.Uint64(payload[8:16])}
		}
	case wire.TItems: // count(4) then pri(4) len(4) value per item
		if len(payload) >= 20 && binary.BigEndian.Uint32(payload) > 0 {
			items = []uint64{binary.BigEndian.Uint64(payload[12:20])}
		}
	}
	t := c.tr
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, serverSpan{start: r.start, end: now, typ: r.typ})
	for _, it := range items {
		t.byItem[it] = idx
	}
	t.mu.Unlock()
}

// frameSplitter cuts a byte stream into wire frames incrementally:
// length(4) version(1) type(1) flags(2) id(4), then the payload. Only
// payloads of the kinds keep selects are collected.
type frameSplitter struct {
	hdr     [12]byte
	nhdr    int
	need    int
	keep    bool
	typ     wire.Type
	id      uint32
	payload []byte
}

func (s *frameSplitter) feed(b []byte, keep func(wire.Type) bool, emit func(wire.Type, uint32, []byte)) {
	for len(b) > 0 {
		if s.nhdr < len(s.hdr) {
			k := copy(s.hdr[s.nhdr:], b)
			s.nhdr += k
			b = b[k:]
			if s.nhdr < len(s.hdr) {
				return
			}
			s.typ = wire.Type(s.hdr[5])
			s.id = binary.BigEndian.Uint32(s.hdr[8:12])
			s.need = int(binary.BigEndian.Uint32(s.hdr[0:4])) - 8
			s.keep = keep(s.typ)
			s.payload = s.payload[:0]
		}
		k := min(s.need, len(b))
		if s.keep {
			s.payload = append(s.payload, b[:k]...)
		}
		s.need -= k
		b = b[k:]
		if s.need <= 0 {
			emit(s.typ, s.id, s.payload)
			s.nhdr = 0
		}
	}
}

// spanRecord is one line of the written trace. A server span's parent
// is the client span of the call whose item it carried.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceFile is where a run's spans go: .bench_build/traces.
func traceFile(o *options) (*os.File, *bufio.Writer, error) {
	dir := filepath.Join(o.buildDir(), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload.name, o.seed)))
	if err != nil {
		return nil, nil, err
	}
	return f, bufio.NewWriter(f), nil
}

func writeRecords(o *options, each func(enc *json.Encoder) error) error {
	f, bw, err := traceFile(o)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := each(json.NewEncoder(bw)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// writeServedSpans writes every client span and, as its child, the
// server span linked to it.
func writeServedSpans(o *options, tr *tracer, spans []clientSpan) error {
	return writeRecords(o, func(enc *json.Encoder) error {
		next := 1
		for _, cs := range spans {
			name := "pqclient.delete"
			if cs.insert {
				name = "pqclient.insert"
			}
			parent := next
			if err := enc.Encode(spanRecord{ID: parent, Name: name, Start: cs.start, End: cs.end}); err != nil {
				return err
			}
			next++
			if !cs.linked {
				continue
			}
			if ss, ok := tr.serverSpanOf(cs.link); ok {
				if err := enc.Encode(spanRecord{ID: next, Parent: parent, Name: "server." + ss.typ.String(), Start: ss.start, End: ss.end}); err != nil {
					return err
				}
				next++
			}
		}
		return nil
	})
}

func writeSimSpans(o *options, spans []cellSample) error {
	return writeRecords(o, func(enc *json.Encoder) error {
		for i, s := range spans {
			name := fmt.Sprintf("simulator.Run/%s/%d", s.cell.alg, s.cell.procs)
			if err := enc.Encode(spanRecord{ID: i + 1, Name: name, Start: s.start, End: s.end}); err != nil {
				return err
			}
		}
		return nil
	})
}
