package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"pq"
	"pq/internal/wire"
)

// BenchmarkServeLoopback measures the steady-state request→response
// path of the serving stack over a real loopback TCP connection. The
// driver speaks raw, pre-encoded wire frames (no client library, no
// per-op allocation on the driver side), so the reported allocs/op is
// the serving path's own budget: reader, decode, queue mutation,
// response encode, flush. `make bench-serve` gates on it staying at
// zero for the in-memory insert/delete-min path.
//
// Sub-benchmarks:
//
//	insert_delete   depth-2 pipeline (1 insert + 1 delete per iter)
//	pipelined16     depth-16 pipeline (8 inserts + 8 deletes per iter)
//	pipelined16_4k  same, with 4 KiB values (the value copy into the
//	                response buffer dominates)
func BenchmarkServeLoopback(b *testing.B) {
	b.Run("insert_delete", func(b *testing.B) { benchServeLoopback(b, 1, 16) })
	b.Run("pipelined16", func(b *testing.B) { benchServeLoopback(b, 8, 16) })
	b.Run("pipelined16_4k", func(b *testing.B) { benchServeLoopback(b, 8, 4096) })
}

// benchServeLoopback drives pairs insert/delete pairs per iteration
// through one pipelined write, then reads all 2*pairs responses.
func benchServeLoopback(b *testing.B, pairs, valueSize int) {
	const (
		queue  = "bench"
		pris   = 64
		shards = 4
	)
	s := New(Config{Concurrency: 8})
	if err := s.AddQueue(QueueSpec{
		Name: queue, Algorithm: pq.FunnelTree, Priorities: pris, Shards: shards,
	}); err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe("127.0.0.1:0") }()
	defer func() { s.Close(); <-done }()
	var addr net.Addr
	for addr = s.Addr(); addr == nil; addr = s.Addr() {
	}
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()

	// Pre-encode the whole pipelined request batch once; only request
	// ids and priorities are patched in place per iteration.
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = byte(i)
	}
	var batch []byte
	var idOffs, priOffs []int
	for p := 0; p < pairs; p++ {
		idOffs = append(idOffs, len(batch)+8)
		priOffs = append(priOffs, len(batch)+4+8+2+len(queue))
		batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TInsert,
			Payload: wire.Insert{Queue: queue, Item: wire.Item{Pri: 1, Value: value}}.Append(nil)})
		idOffs = append(idOffs, len(batch)+8)
		batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMin,
			Payload: wire.QueueReq{Queue: queue}.Append(nil)})
	}

	br := bufio.NewReaderSize(nc, 256<<10)
	rr := benchRespReader{br: br, buf: make([]byte, wire.MaxFrame)}
	nextID := uint32(1)
	iter := func() {
		for p := 0; p < pairs; p++ {
			binary.BigEndian.PutUint32(batch[idOffs[2*p]:], nextID)
			binary.BigEndian.PutUint32(batch[priOffs[p]:], nextID%pris)
			binary.BigEndian.PutUint32(batch[idOffs[2*p+1]:], nextID+1)
			nextID += 2
		}
		if _, err := nc.Write(batch); err != nil {
			b.Fatal(err)
		}
		for p := 0; p < pairs; p++ {
			if t, _ := rr.next(b); t != wire.TInsertOK {
				b.Fatalf("insert response: got %v", t)
			}
			if t, _ := rr.next(b); t != wire.TItem {
				b.Fatalf("delete response: got %v", t)
			}
		}
	}

	// Warm the path (lazy pools, histograms, funnel records) before
	// measuring the steady state.
	for i := 0; i < 2000/pairs+16; i++ {
		iter()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iter()
	}
	b.StopTimer()
	ops := float64(b.N) * float64(2*pairs)
	b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/req")
}

// benchRespReader reads one response frame into a fixed buffer without
// allocating.
type benchRespReader struct {
	br  *bufio.Reader
	hdr [12]byte
	buf []byte
}

func (rr *benchRespReader) next(b *testing.B) (wire.Type, uint32) {
	if _, err := io.ReadFull(rr.br, rr.hdr[:]); err != nil {
		b.Fatal(err)
	}
	n := binary.BigEndian.Uint32(rr.hdr[:4])
	if n < 8 || n > wire.MaxFrame {
		b.Fatalf("bad response length %d", n)
	}
	if n > 8 {
		if _, err := io.ReadFull(rr.br, rr.buf[:n-8]); err != nil {
			b.Fatal(err)
		}
	}
	return wire.Type(rr.hdr[5]), binary.BigEndian.Uint32(rr.hdr[8:12])
}
