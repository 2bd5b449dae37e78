package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"pq"
	"pq/internal/wire"
)

// TestServeBufferOwnershipStress hammers the pooled-buffer serving path
// from several concurrent connections, each pipelining a randomized mix
// of inserts, delete-mins, delete-min-batches, protocol errors, and
// bad-version resync frames. Values run from 8 B to 8 KiB, so a burst
// of responses overflows the writer's buffer and flushes mid-batch; a
// rare value larger than the whole buffer makes the writer swap in a
// bigger pool buffer between those flushes. Every delivered value must
// match the deterministic pattern derived from its priority — a
// recycled-too-early request payload, response buffer, or queue
// envelope shows up as a corrupt or cross-wired value. Run under -race
// this is the ownership-discipline check for the zero-allocation path.
func TestServeBufferOwnershipStress(t *testing.T) {
	const (
		queue  = "stress"
		pris   = 64
		shards = 4
		conns  = 4
	)
	batches := 300
	if testing.Short() {
		batches = 80
	}

	s := New(Config{Concurrency: 8})
	if err := s.AddQueue(QueueSpec{
		Name: queue, Algorithm: pq.FunnelTree, Priorities: pris, Shards: shards,
		Capacity: 2048, // small enough that RETRY_AFTER sheds actually happen
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe("127.0.0.1:0") }()
	defer func() { s.Close(); <-done }()
	var addr net.Addr
	for addr = s.Addr(); addr == nil; addr = s.Addr() {
	}

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if err := stressConn(addr.String(), queue, pris, batches, seed); err != nil {
				errs <- err
			}
		}(int64(c + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// stressValue fills the pattern every insert uses, so any reader can
// verify a delivered value knowing only its priority and length.
func stressValue(dst []byte, pri uint32) {
	for i := range dst {
		dst[i] = byte(uint32(i)*7 + pri*131)
	}
}

func checkStressValue(v []byte, pri uint32) error {
	for i := range v {
		if v[i] != byte(uint32(i)*7+pri*131) {
			return fmt.Errorf("value byte %d of %d corrupt for pri %d: got %#x want %#x",
				i, len(v), pri, v[i], byte(uint32(i)*7+pri*131))
		}
	}
	return nil
}

// request kinds the stress mix draws from.
const (
	reqInsert = iota // TInsertOK or TRetryAfter
	reqDelete        // TItem or TEmpty
	reqBatch         // TItems
	reqBadQueue
	reqBadPri
	reqBadVersion // resync: answered with TError, connection survives
)

func stressConn(addr, queue string, pris, batches int, seed int64) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 256<<10)
	rng := rand.New(rand.NewSource(seed))
	// One insert in 64 carries a value larger than the writer's whole
	// buffer, so buffer swaps interleave with mid-batch flushes.
	sizes := []int{8, 96, 700, 4 << 10, 8 << 10}
	const bigValue = respBufSize + 4<<10
	scratch := make([]byte, bigValue)
	respBuf := make([]byte, wire.MaxFrame)
	var hdr [12]byte

	nextID := uint32(0)
	var batch []byte
	var kinds []int
	for bi := 0; bi < batches; bi++ {
		batch = batch[:0]
		kinds = kinds[:0]
		depth := 8 + rng.Intn(17)
		for r := 0; r < depth; r++ {
			nextID++
			kind := reqInsert
			switch n := rng.Intn(100); {
			case n < 45: // insert
			case n < 80:
				kind = reqDelete
			case n < 88:
				kind = reqBatch
			case n < 92:
				kind = reqBadQueue
			case n < 96:
				kind = reqBadPri
			default:
				kind = reqBadVersion
			}
			kinds = append(kinds, kind)
			switch kind {
			case reqInsert:
				pri := uint32(rng.Intn(pris))
				v := scratch[:sizes[rng.Intn(len(sizes))]]
				if rng.Intn(64) == 0 {
					v = scratch[:bigValue]
				}
				stressValue(v, pri)
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TInsert, ID: nextID,
					Payload: wire.Insert{Queue: queue, Item: wire.Item{Pri: pri, Value: v}}.Append(nil)})
			case reqDelete:
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMin, ID: nextID,
					Payload: wire.QueueReq{Queue: queue}.Append(nil)})
			case reqBatch:
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMinBatch, ID: nextID,
					Payload: wire.DeleteMinBatch{Queue: queue, Max: uint32(1 + rng.Intn(8))}.Append(nil)})
			case reqBadQueue:
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMin, ID: nextID,
					Payload: wire.QueueReq{Queue: "no-such-queue"}.Append(nil)})
			case reqBadPri:
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TInsert, ID: nextID,
					Payload: wire.Insert{Queue: queue, Item: wire.Item{Pri: uint32(pris + 7), Value: scratch[:8]}}.Append(nil)})
			case reqBadVersion:
				n0 := len(batch)
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMin, ID: nextID,
					Payload: wire.QueueReq{Queue: queue}.Append(nil)})
				batch[n0+4] = 99 // unsupported version: server resyncs + TError
			}
		}
		if _, err := nc.Write(batch); err != nil {
			return fmt.Errorf("batch %d: write: %w", bi, err)
		}
		firstID := nextID - uint32(depth) + 1
		for r := 0; r < depth; r++ {
			typ, id, payload, err := readResp(br, &hdr, respBuf)
			if err != nil {
				return fmt.Errorf("batch %d req %d: %w", bi, r, err)
			}
			if id != firstID+uint32(r) {
				return fmt.Errorf("batch %d req %d: response id %d, want %d (responses reordered?)",
					bi, r, id, firstID+uint32(r))
			}
			switch kinds[r] {
			case reqInsert:
				if typ != wire.TInsertOK && typ != wire.TRetryAfter {
					return fmt.Errorf("insert response: got %v", typ)
				}
			case reqDelete:
				switch typ {
				case wire.TEmpty:
				case wire.TItem:
					m, err := wire.DecodeItem(payload)
					if err != nil {
						return fmt.Errorf("bad ITEM: %w", err)
					}
					if err := checkStressValue(m.Value, m.Pri); err != nil {
						return fmt.Errorf("TItem: %w", err)
					}
				default:
					return fmt.Errorf("delete response: got %v", typ)
				}
			case reqBatch:
				if typ != wire.TItems {
					return fmt.Errorf("batch-delete response: got %v", typ)
				}
				m, err := wire.DecodeItems(payload)
				if err != nil {
					return fmt.Errorf("bad ITEMS: %w", err)
				}
				for i, it := range m.Items {
					if err := checkStressValue(it.Value, it.Pri); err != nil {
						return fmt.Errorf("TItems item %d/%d: %w", i, len(m.Items), err)
					}
				}
			case reqBadQueue, reqBadPri, reqBadVersion:
				if typ != wire.TError {
					return fmt.Errorf("error-case response: got %v", typ)
				}
			}
		}
	}
	return nil
}

// readResp reads one response frame into fixed buffers.
func readResp(br *bufio.Reader, hdr *[12]byte, buf []byte) (wire.Type, uint32, []byte, error) {
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 8 || n > wire.MaxFrame {
		return 0, 0, nil, fmt.Errorf("bad response length %d", n)
	}
	payload := buf[:n-8]
	if n > 8 {
		if _, err := io.ReadFull(br, payload); err != nil {
			return 0, 0, nil, err
		}
	}
	return wire.Type(hdr[5]), binary.BigEndian.Uint32(hdr[8:12]), payload, nil
}
