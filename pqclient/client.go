// Package pqclient is the client library for pqd, the priority-queue
// daemon (see internal/server and cmd/pqd).
//
// A Client owns a small pool of TCP connections and pipelines requests
// on each of them: every call is one request frame, and a connection's
// writes are flushed together whenever its send queue runs dry. Callers
// that want fewer frames batch explicitly with InsertBatch and
// DeleteMinBatch. Admission-control sheds (RETRY_AFTER) are retried
// with jittered backoff up to Config.MaxRetries before surfacing as
// ErrOverload; retries only ever happen on an explicit reject from the
// server, so a retried insert can never be applied twice.
package pqclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pq/internal/wire"
)

// Config tunes a Client. The zero value of every field selects a sane
// default.
type Config struct {
	// Addr is the pqd host:port. Required.
	Addr string
	// Conns is the connection-pool size. Default 2.
	Conns int
	// DialTimeout bounds connection establishment. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout applies to requests whose context carries no
	// deadline. Default 5s; negative disables.
	RequestTimeout time.Duration
	// MaxRetries is how many times an Insert shed with RETRY_AFTER is
	// retried before ErrOverload. Default 8; negative disables retry.
	MaxRetries int
	// RetryBase is the backoff used when the server sends no hint.
	// Default 2ms. Each attempt sleeps the hint (or base) plus up to
	// 100% random jitter.
	RetryBase time.Duration
}

func (c *Config) normalize() error {
	if c.Addr == "" {
		return errors.New("pqclient: Config.Addr is required")
	}
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	return nil
}

// Item is one (priority, value) pair.
type Item struct {
	Pri   int
	Value []byte
}

// QueueStats mirrors the server's per-queue counters.
type QueueStats = wire.QueueStats

// ErrOverload reports that an insert was shed by admission control and
// every retry was shed too. Callers should back off and try later.
var ErrOverload = errors.New("pqclient: overloaded")

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("pqclient: closed")

// ServerError is a TError response from the server (unknown queue,
// out-of-range priority, malformed frame...).
type ServerError struct {
	Msg string
}

func (e *ServerError) Error() string { return "pqclient: server: " + e.Msg }

// RetryError is one RETRY_AFTER shed; Insert handles these internally
// and only surfaces ErrOverload, but InsertBatch exposes the partial
// accept so callers see it for the rejected tail.
type RetryError struct {
	After time.Duration
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("pqclient: shed by admission control (retry after %v)", e.After)
}

// WrongNodeError is a WRONG_NODE NACK from a cluster node: the insert's
// priority is owned by another node under the server's cluster map
// (version MapVersion). Owner is that node's address. Nothing was
// admitted. A plain Client surfaces it as-is; the ClusterClient
// refreshes its map and re-routes.
type WrongNodeError struct {
	MapVersion uint64
	Owner      string
}

func (e *WrongNodeError) Error() string {
	return fmt.Sprintf("pqclient: wrong node: priority owned by %q (cluster map version %d)", e.Owner, e.MapVersion)
}

// Client is a pooled, pipelining pqd client. All methods are safe for
// concurrent use.
type Client struct {
	cfg Config

	mu     sync.Mutex
	conns  []*conn
	next   uint64
	closed bool
}

// Dial validates cfg and connects the first pooled connection (so a
// bad address fails fast); the rest are established lazily.
func Dial(cfg Config) (*Client, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, conns: make([]*conn, cfg.Conns)}
	cn, err := dialConn(cfg)
	if err != nil {
		return nil, err
	}
	c.conns[0] = cn
	return c, nil
}

// Close severs every pooled connection; in-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cn := range c.conns {
		if cn != nil {
			cn.close(ErrClosed)
		}
	}
	return nil
}

// conn picks a pooled connection round-robin, redialing dead slots.
func (c *Client) conn() (*conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	i := int(c.next % uint64(len(c.conns)))
	c.next++
	cn := c.conns[i]
	if cn != nil && !cn.dead() {
		return cn, nil
	}
	cn, err := dialConn(c.cfg)
	if err != nil {
		return nil, err
	}
	c.conns[i] = cn
	return cn, nil
}

// do sends one call and waits for its resolution.
func (c *Client) do(ctx context.Context, cl *call) error {
	if _, has := ctx.Deadline(); !has && c.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		defer cancel()
	}
	cn, err := c.conn()
	if err != nil {
		return err
	}
	select {
	case cn.sendCh <- cl:
	case <-cn.closed:
		return cn.closeErr()
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-cl.done:
		return cl.err
	case <-ctx.Done():
		// Abandon: the conn resolves the call whenever the response
		// arrives; nobody is listening by then.
		return ctx.Err()
	}
}

func (c *Client) sleepRetry(ctx context.Context, re *RetryError) error {
	d := re.After
	if d <= 0 {
		d = c.cfg.RetryBase
	}
	d += time.Duration(rand.Int63n(int64(d) + 1)) // full jitter on top
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Insert adds value at priority pri, retrying jittered when shed.
// After MaxRetries sheds it returns ErrOverload (wrapped with the last
// retry hint).
func (c *Client) Insert(ctx context.Context, queue string, pri int, value []byte) error {
	if pri < 0 {
		return fmt.Errorf("pqclient: negative priority %d", pri)
	}
	if len(value) > wire.MaxValue {
		return fmt.Errorf("pqclient: value %d bytes exceeds the %d-byte limit", len(value), wire.MaxValue)
	}
	for attempt := 0; ; attempt++ {
		cl := &call{
			kind:  wire.TInsert,
			queue: queue,
			item:  wire.Item{Pri: uint32(pri), Value: value},
			done:  make(chan struct{}),
		}
		err := c.do(ctx, cl)
		var re *RetryError
		if !errors.As(err, &re) {
			return err
		}
		if attempt >= c.cfg.MaxRetries {
			return fmt.Errorf("%w after %d attempts: %v", ErrOverload, attempt+1, re)
		}
		if err := c.sleepRetry(ctx, re); err != nil {
			return err
		}
	}
}

// InsertBatch adds items in one frame and returns how many the server
// admitted (an in-order prefix). A short count comes with a *RetryError
// for the rejected tail; InsertBatch does not retry internally.
func (c *Client) InsertBatch(ctx context.Context, queue string, items []Item) (accepted int, err error) {
	if len(items) == 0 {
		return 0, nil
	}
	m := wire.InsertBatch{Queue: queue, Items: make([]wire.Item, len(items))}
	bytes := 2 + len(queue) + 4 // queue prefix + item count
	for i, it := range items {
		if it.Pri < 0 {
			return 0, fmt.Errorf("pqclient: negative priority %d", it.Pri)
		}
		if len(it.Value) > wire.MaxValue {
			return 0, fmt.Errorf("pqclient: item %d: value %d bytes exceeds the %d-byte limit", i, len(it.Value), wire.MaxValue)
		}
		bytes += 8 + len(it.Value)
		m.Items[i] = wire.Item{Pri: uint32(it.Pri), Value: it.Value}
	}
	if bytes > wire.MaxPayload {
		return 0, fmt.Errorf("pqclient: batch encodes to %d bytes, exceeding the %d-byte frame limit; split the batch", bytes, wire.MaxPayload)
	}
	cl := &call{kind: wire.TInsertBatch, queue: queue, payload: m.Append(nil), done: make(chan struct{})}
	if err := c.do(ctx, cl); err != nil {
		return 0, err
	}
	ok, err := wire.DecodeInsertOK(cl.resp.Payload)
	if err != nil {
		return 0, fmt.Errorf("pqclient: bad INSERT_OK: %w", err)
	}
	if ok.Rejected > 0 {
		return int(ok.Accepted), &RetryError{After: time.Duration(ok.RetryAfterMillis) * time.Millisecond}
	}
	return int(ok.Accepted), nil
}

// DeleteMin removes and returns the most urgent item, or ok=false if
// the queue appeared empty.
func (c *Client) DeleteMin(ctx context.Context, queue string) (it Item, ok bool, err error) {
	cl := &call{kind: wire.TDeleteMin, queue: queue,
		payload: wire.QueueReq{Queue: queue}.Append(nil), done: make(chan struct{})}
	if err := c.do(ctx, cl); err != nil {
		return Item{}, false, err
	}
	if cl.resp.Type == wire.TEmpty {
		return Item{}, false, nil
	}
	w, err := wire.DecodeItem(cl.resp.Payload)
	if err != nil {
		return Item{}, false, fmt.Errorf("pqclient: bad ITEM: %w", err)
	}
	return Item{Pri: int(w.Pri), Value: w.Value}, true, nil
}

// DeleteMinBatch removes up to max items in one round trip; a short
// (possibly empty) result means the queue ran empty.
func (c *Client) DeleteMinBatch(ctx context.Context, queue string, max int) ([]Item, error) {
	if max < 1 {
		return nil, fmt.Errorf("pqclient: DeleteMinBatch max must be >= 1, got %d", max)
	}
	if max > wire.MaxBatchItems {
		max = wire.MaxBatchItems
	}
	cl := &call{kind: wire.TDeleteMinBatch, queue: queue,
		payload: wire.DeleteMinBatch{Queue: queue, Max: uint32(max)}.Append(nil), done: make(chan struct{})}
	if err := c.do(ctx, cl); err != nil {
		return nil, err
	}
	m, err := wire.DecodeItems(cl.resp.Payload)
	if err != nil {
		return nil, fmt.Errorf("pqclient: bad ITEMS: %w", err)
	}
	out := make([]Item, len(m.Items))
	for i, w := range m.Items {
		out[i] = Item{Pri: int(w.Pri), Value: w.Value}
	}
	return out, nil
}

// Stats fetches the server's counters for one queue.
func (c *Client) Stats(ctx context.Context, queue string) (QueueStats, error) {
	cl := &call{kind: wire.TStats, queue: queue,
		payload: wire.QueueReq{Queue: queue}.Append(nil), done: make(chan struct{})}
	if err := c.do(ctx, cl); err != nil {
		return QueueStats{}, err
	}
	var st QueueStats
	if err := json.Unmarshal(cl.resp.Payload, &st); err != nil {
		return QueueStats{}, fmt.Errorf("pqclient: bad STATS_REPLY: %w", err)
	}
	return st, nil
}

// Drain tells the server to stop admitting inserts to the queue and
// returns how many items remained to be deleted when draining began.
func (c *Client) Drain(ctx context.Context, queue string) (remaining uint64, err error) {
	cl := &call{kind: wire.TDrain, queue: queue,
		payload: wire.QueueReq{Queue: queue}.Append(nil), done: make(chan struct{})}
	if err := c.do(ctx, cl); err != nil {
		return 0, err
	}
	m, err := wire.DecodeDrained(cl.resp.Payload)
	if err != nil {
		return 0, fmt.Errorf("pqclient: bad DRAINED: %w", err)
	}
	return m.Remaining, nil
}
