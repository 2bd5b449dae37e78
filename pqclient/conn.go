package pqclient

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"pq/internal/wire"
)

// call is one logical request. Insert calls (kind TInsert) carry their
// item, encoded on the writer goroutine; every other kind arrives with
// its payload pre-encoded. The conn closes done exactly once with err
// (and resp) set.
type call struct {
	kind    wire.Type
	queue   string
	item    wire.Item // TInsert only
	payload []byte    // every other kind

	resp wire.Frame
	err  error
	done chan struct{}
}

func (cl *call) finish(resp wire.Frame, err error) {
	cl.resp, cl.err = resp, err
	close(cl.done)
}

// sendQueue is how many calls may wait for a conn's writer; callers
// beyond it block in Client.do until the writer catches up or their
// context ends. The writer flushes only once the queue is empty, so a
// burst of pipelined calls up to this size shares one write.
const sendQueue = 128

// conn is one pooled connection: a writer goroutine that drains sendCh
// (one frame per call, flushing only when the pipeline runs dry) and a
// reader goroutine that matches response frames to pending calls by id.
type conn struct {
	nc net.Conn

	sendCh chan *call

	// Encode scratch, touched only by the writeLoop goroutine: each
	// frame is built in enc and written in one go, so the steady-state
	// send path reuses one buffer instead of allocating per call.
	enc []byte

	mu      sync.Mutex
	pend    map[uint32]*call
	nextID  uint32
	err     error
	closed  chan struct{}
	closeFn sync.Once
}

func dialConn(cfg Config) (*conn, error) {
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &conn{
		nc:     nc,
		sendCh: make(chan *call, sendQueue),
		pend:   make(map[uint32]*call),
		closed: make(chan struct{}),
	}
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

func (c *conn) dead() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

func (c *conn) closeErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// close tears the connection down and fails everything in flight.
func (c *conn) close(err error) {
	c.closeFn.Do(func() {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		failed := c.pend
		c.pend = map[uint32]*call{}
		c.mu.Unlock()
		close(c.closed)
		c.nc.Close()
		for _, cl := range failed {
			cl.finish(wire.Frame{}, err)
		}
		// Fail whatever is parked in the send queue; producers racing
		// with this drain see c.closed in their select.
		for {
			select {
			case cl := <-c.sendCh:
				cl.finish(wire.Frame{}, err)
			default:
				return
			}
		}
	})
}

// register assigns a request id to a call.
func (c *conn) register(cl *call) (uint32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, false
	}
	c.nextID++
	id := c.nextID
	c.pend[id] = cl
	return id, true
}

func (c *conn) take(id uint32) (*call, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.pend[id]
	if ok {
		delete(c.pend, id)
	}
	return cl, ok
}

// writeLoop drains sendCh, one frame per call. The buffered writer is
// flushed only when the send queue runs dry, so pipelined callers share
// syscalls.
func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	for {
		var cl *call
		select {
		case cl = <-c.sendCh:
		case <-c.closed:
			return
		}
		err := c.writeOne(bw, cl)
		if err == nil && len(c.sendCh) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			c.close(err)
			return
		}
	}
}

// oversizedErr rejects a request whose encoded payload the server's
// ReadFrame would refuse; failing it client-side keeps the connection
// (and every other pipelined request on it) alive.
func oversizedErr(n int) error {
	return fmt.Errorf("pqclient: request payload %d bytes exceeds the %d-byte frame limit", n, wire.MaxPayload)
}

// writeOne sends one call as one frame, built in the conn's reusable
// scratch; an insert's item is encoded straight into it. The payload
// size is checked before a request id is burned on the call.
func (c *conn) writeOne(bw *bufio.Writer, cl *call) error {
	size := len(cl.payload)
	if cl.kind == wire.TInsert {
		size = 2 + len(cl.queue) + 8 + len(cl.item.Value)
	}
	if size > wire.MaxPayload {
		cl.finish(wire.Frame{}, oversizedErr(size))
		return nil
	}
	id, ok := c.register(cl)
	if !ok {
		return c.closeErr()
	}
	if cl.kind == wire.TInsert {
		buf, off := wire.BeginFrame(c.enc[:0], wire.TInsert, id)
		c.enc = wire.EndFrame(wire.Insert{Queue: cl.queue, Item: cl.item}.Append(buf), off)
	} else {
		c.enc = wire.AppendFrameHeader(c.enc[:0], cl.kind, id, len(cl.payload))
		c.enc = append(c.enc, cl.payload...)
	}
	_, err := bw.Write(c.enc)
	return err
}

// readLoop matches responses to pending calls. Payloads come from the
// wire buffer pool; Insert callers read only cl.err, never
// resp.Payload, so an insert's response is recycled here — the insert
// hot path reuses one pooled buffer per response instead of allocating
// each.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var fr wire.FrameReader
	for {
		f, err := fr.ReadFrame(br)
		if err != nil {
			c.close(err)
			return
		}
		cl, ok := c.take(f.ID)
		if !ok {
			wire.PutBuf(f.Payload)
			continue // no request has this id: drop the stray response
		}
		deliver(cl, f)
		if cl.kind == wire.TInsert {
			wire.PutBuf(f.Payload)
		}
	}
}

// deliver resolves a call from its response frame.
func deliver(cl *call, f wire.Frame) {
	switch f.Type {
	case wire.TError:
		em, _ := wire.DecodeErrorMsg(f.Payload)
		cl.finish(f, &ServerError{Msg: em.Msg})
	case wire.TWrongNode:
		wn, _ := wire.DecodeWrongNode(f.Payload)
		cl.finish(f, &WrongNodeError{MapVersion: wn.MapVersion, Owner: wn.Owner})
	case wire.TRetryAfter:
		ra, _ := wire.DecodeRetryAfter(f.Payload)
		cl.finish(f, &RetryError{After: time.Duration(ra.Millis) * time.Millisecond})
	default:
		if cl.kind == wire.TInsert && f.Type != wire.TInsertOK {
			// An Insert caller never reads resp, so a stray response
			// type is caught here.
			cl.finish(f, &ServerError{Msg: "unexpected " + f.Type.String() + " response to insert"})
			return
		}
		cl.finish(f, nil)
	}
}
