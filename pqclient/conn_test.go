package pqclient

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pq/internal/wire"
)

// fakeServer stands in for pqd on loopback: it reads request frames
// with the wire codec and hands each to reply, which runs on the
// connection's goroutine and writes whatever responses it likes — none,
// to leave the request in flight.
type fakeServer struct {
	addr     string
	accepted atomic.Int32
}

func startFake(t *testing.T, reply func(nc net.Conn, f wire.Frame)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{addr: ln.Addr().String()}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fs.accepted.Add(1)
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				br := bufio.NewReader(nc)
				for {
					f, err := wire.ReadFrame(br)
					if err != nil {
						return
					}
					reply(nc, f)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return fs
}

// respond writes one response frame; a write to a connection the test
// already closed is not an error worth reporting.
func respond(nc net.Conn, typ wire.Type, id uint32, payload []byte) {
	_ = wire.WriteFrame(nc, wire.Frame{Type: typ, ID: id, Payload: payload})
}

// queueOf returns the queue a request frame names.
func queueOf(f wire.Frame) string {
	if f.Type == wire.TInsert {
		m, _ := wire.DecodeInsert(f.Payload)
		return m.Queue
	}
	m, _ := wire.DecodeQueueReq(f.Payload)
	return m.Queue
}

func dialFake(t *testing.T, fs *fakeServer, tune func(*Config)) *Client {
	t.Helper()
	cfg := Config{Addr: fs.addr, Conns: 1, RetryBase: 100 * time.Microsecond}
	if tune != nil {
		tune(&cfg)
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func insertOK() []byte { return wire.InsertOK{Accepted: 1}.Append(nil) }

func TestRetryAfterRetriedThenOverload(t *testing.T) {
	var shed, flaky atomic.Int32
	fs := startFake(t, func(nc net.Conn, f wire.Frame) {
		// "flaky" recovers on its third attempt; "shed" never does.
		if queueOf(f) != "flaky" {
			shed.Add(1)
		} else if flaky.Add(1) == 3 {
			respond(nc, wire.TInsertOK, f.ID, insertOK())
			return
		}
		respond(nc, wire.TRetryAfter, f.ID, wire.RetryAfter{Millis: 0}.Append(nil))
	})
	const retries = 3
	c := dialFake(t, fs, func(cfg *Config) { cfg.MaxRetries = retries })
	ctx := context.Background()

	if err := c.Insert(ctx, "flaky", 1, []byte("v")); err != nil {
		t.Fatalf("insert shed twice then admitted: %v", err)
	}
	if got := flaky.Load(); got != 3 {
		t.Fatalf("flaky insert sent %d times, want 3", got)
	}

	err := c.Insert(ctx, "shed", 1, []byte("v"))
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("always-shed insert: err = %v, want ErrOverload", err)
	}
	if got := shed.Load(); got != retries+1 {
		t.Fatalf("always-shed insert sent %d times, want MaxRetries+1 = %d", got, retries+1)
	}
}

func TestErrorResponsesMapToTypedErrors(t *testing.T) {
	fs := startFake(t, func(nc net.Conn, f wire.Frame) {
		switch queueOf(f) {
		case "bad":
			respond(nc, wire.TError, f.ID, wire.ErrorMsg{Msg: "priority out of range"}.Append(nil))
		case "moved":
			respond(nc, wire.TWrongNode, f.ID, wire.WrongNode{MapVersion: 7, Owner: "10.0.0.2:7070"}.Append(nil))
		default:
			respond(nc, wire.TEmpty, f.ID, nil)
		}
	})
	c := dialFake(t, fs, nil)
	ctx := context.Background()

	checkServerErr := func(op string, err error) {
		t.Helper()
		var se *ServerError
		if !errors.As(err, &se) || se.Msg != "priority out of range" {
			t.Fatalf("%s on ERROR: err = %v, want ServerError with the server's message", op, err)
		}
	}
	checkWrongNode := func(op string, err error) {
		t.Helper()
		var wn *WrongNodeError
		if !errors.As(err, &wn) || wn.MapVersion != 7 || wn.Owner != "10.0.0.2:7070" {
			t.Fatalf("%s on WRONG_NODE: err = %v, want WrongNodeError{7, 10.0.0.2:7070}", op, err)
		}
	}
	checkServerErr("Insert", c.Insert(ctx, "bad", 1, []byte("v")))
	_, _, err := c.DeleteMin(ctx, "bad")
	checkServerErr("DeleteMin", err)
	checkWrongNode("Insert", c.Insert(ctx, "moved", 1, []byte("v")))
	_, _, err = c.DeleteMin(ctx, "moved")
	checkWrongNode("DeleteMin", err)

	// An insert answered with a non-insert response type is a server
	// error too, not a silent success.
	var se *ServerError
	if err := c.Insert(ctx, "q", 1, []byte("v")); !errors.As(err, &se) {
		t.Fatalf("Insert answered with EMPTY: err = %v, want ServerError", err)
	}
}

func TestOversizedRequestFailsAloneOnClient(t *testing.T) {
	var frames atomic.Int32
	fs := startFake(t, func(nc net.Conn, f wire.Frame) {
		frames.Add(1)
		respond(nc, wire.TInsertOK, f.ID, insertOK())
	})
	c := dialFake(t, fs, nil)
	ctx := context.Background()

	// A maximal value under a long queue name passes Insert's value
	// check but encodes past the frame limit.
	long := strings.Repeat("q", 100)
	big := make([]byte, wire.MaxValue)
	const small = 8
	var wg sync.WaitGroup
	errs := make([]error, small)
	var bigErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		bigErr = c.Insert(ctx, long, 1, big)
	}()
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Insert(ctx, "q", 1, []byte("v"))
		}()
	}
	wg.Wait()

	var se *ServerError
	if bigErr == nil || errors.As(bigErr, &se) || !strings.Contains(bigErr.Error(), "frame limit") {
		t.Fatalf("oversized insert: err = %v, want the client's frame-limit error", bigErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d pipelined beside the oversized one: %v", i, err)
		}
	}
	if got := frames.Load(); got != small {
		t.Fatalf("server saw %d frames, want %d (the oversized one never sent)", got, small)
	}
	if got := fs.accepted.Load(); got != 1 {
		t.Fatalf("server accepted %d connections, want 1 (the conn survived)", got)
	}
}

func TestAbandonedResponseDropped(t *testing.T) {
	got := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	fs := startFake(t, func(nc net.Conn, f wire.Frame) {
		if first.CompareAndSwap(false, true) {
			// Hold the first request until its caller has given up,
			// then answer it anyway.
			close(got)
			<-release
			respond(nc, wire.TItem, f.ID, wire.AppendItem(nil, wire.Item{Pri: 1, Value: []byte("late")}))
			return
		}
		respond(nc, wire.TEmpty, f.ID, nil)
	})
	c := dialFake(t, fs, nil)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-got
		cancel()
	}()
	if _, _, err := c.DeleteMin(ctx, "q"); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned DeleteMin: err = %v, want context.Canceled", err)
	}
	close(release)

	// The late ITEM arrives ahead of the next response on the same
	// conn; it must go nowhere, and the next call gets its own answer.
	for i := 0; i < 2; i++ {
		it, ok, err := c.DeleteMin(context.Background(), "q")
		if err != nil || ok {
			t.Fatalf("DeleteMin %d after the abandoned one: item=%+v ok=%v err=%v, want EMPTY", i, it, ok, err)
		}
	}
	if got := fs.accepted.Load(); got != 1 {
		t.Fatalf("server accepted %d connections, want 1", got)
	}
}

func TestServerCloseFailsInFlightCalls(t *testing.T) {
	const n = 16
	var seen atomic.Int32
	fs := startFake(t, func(nc net.Conn, f wire.Frame) {
		// Answer nothing; hang up once every call is in flight.
		if seen.Add(1) == n {
			nc.Close()
		}
	})
	c := dialFake(t, fs, func(cfg *Config) { cfg.RequestTimeout = time.Minute })

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, _, err := c.DeleteMin(context.Background(), "q")
			errs <- err
		}()
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err == nil || errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("in-flight call after server hang-up: err = %v, want a connection error", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d in-flight calls still hanging after the server closed the socket", n-i, n)
		}
	}
}
