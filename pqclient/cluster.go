// Cluster-aware client: routes operations across a multi-node pqd
// deployment using the versioned cluster map (see wire.ClusterMap).
//
// Routing contract:
//
//   - INSERT / INSERT_BATCH go to the node owning the item's priority.
//     A WRONG_NODE NACK (stale map) triggers a map refresh from the
//     NACKing node — it demonstrably has a map that disagrees — and a
//     bounded re-route; batches are split per owner before sending.
//   - DELETE_MIN mirrors the two-choice pull of relaxed MultiQueues at
//     cluster scale: sample two distinct nodes, pop both tops
//     concurrently, deliver the better (smaller priority) and put the
//     loser back via its owner's insert path. A put-back the owner
//     refuses (shed, draining, unreachable) is stashed client-side and
//     delivered before any further network pop, so no popped item is
//     ever dropped. Only when every node answers "empty" (a full sweep,
//     not just the two samples) does DeleteMin report empty.
//   - DELETE_MIN_BATCH pulls nodes in ascending order of their lowest
//     owned priority — the drain-friendly path — and merges.
//   - RETRY_AFTER hand-off: a node that sheds a put-back insert has it
//     handed off to the local stash rather than retried against other
//     nodes (no other node owns the range), and delete-min treats a
//     node miss by moving on to the remaining nodes.
//
// Exactly-once: the winner of a two-choice pop is delivered exactly
// once; the loser either re-enters its owner node (acknowledged insert)
// or sits in the stash until a later DeleteMin/DeleteMinBatch delivers
// it. A put-back whose outcome is ambiguous (transport error after the
// frame may have reached the node) is stashed too — favoring no-loss —
// so a lost acknowledgement can at worst duplicate that item; callers
// that need strict exactly-once across a node crash quiesce pops before
// severing nodes, exactly like the single-node crash discipline.
package pqclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pq/internal/wire"
)

// ClusterConfig tunes a ClusterClient. Either Map (a static, already
// validated map) or Seeds plus BootstrapQueue (fetch the map via STATS
// from the first reachable seed) must be set.
type ClusterConfig struct {
	// Map is a static cluster map. When nil, the map is fetched from
	// Seeds at dial time.
	Map *wire.ClusterMap
	// Seeds are node addresses to bootstrap the map from (any node of
	// the cluster serves the full map in STATS v4). Unused when Map is
	// set.
	Seeds []string
	// BootstrapQueue is the queue name used for the STATS bootstrap
	// fetch (STATS is per-queue). Required when Map is nil.
	BootstrapQueue string

	// Per-node connection tuning, applied to every node's Client pool;
	// zero values take the Config defaults.
	Conns          int
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	MaxRetries     int
	RetryBase      time.Duration

	// Rand seeds the two-choice sampling; 0 uses a global source. Tests
	// set it for reproducible node picks.
	Rand int64
}

func (c *ClusterConfig) nodeConfig(addr string) Config {
	return Config{
		Addr:           addr,
		Conns:          c.Conns,
		DialTimeout:    c.DialTimeout,
		RequestTimeout: c.RequestTimeout,
		MaxRetries:     c.MaxRetries,
		RetryBase:      c.RetryBase,
	}
}

// ClusterClient routes requests across the nodes of one pqd cluster.
// All methods are safe for concurrent use.
type ClusterClient struct {
	cfg ClusterConfig
	m   atomic.Pointer[wire.ClusterMap]

	mu     sync.Mutex
	nodes  map[string]*Client
	stash  map[string][]Item // per queue: put-back items awaiting delivery
	rng    *rand.Rand
	closed bool
}

// DialCluster builds a cluster client. With cfg.Map set no connection
// is made until the first operation; otherwise the map is fetched from
// the first reachable seed.
func DialCluster(cfg ClusterConfig) (*ClusterClient, error) {
	cc := &ClusterClient{
		cfg:   cfg,
		nodes: make(map[string]*Client),
		stash: make(map[string][]Item),
	}
	if cfg.Rand != 0 {
		cc.rng = rand.New(rand.NewSource(cfg.Rand))
	}
	if cfg.Map != nil {
		// Clone before validating: Validate builds the lookup index in
		// place, and the caller may hand the same map to many clients.
		m := cfg.Map.Clone()
		if err := m.Validate(); err != nil {
			return nil, err
		}
		cc.m.Store(m)
		return cc, nil
	}
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("pqclient: ClusterConfig needs Map or Seeds")
	}
	if cfg.BootstrapQueue == "" {
		return nil, errors.New("pqclient: ClusterConfig.BootstrapQueue is required to fetch the map from Seeds")
	}
	ctx := context.Background()
	var firstErr error
	for _, addr := range cfg.Seeds {
		if err := cc.refreshFrom(ctx, cfg.BootstrapQueue, addr); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return cc, nil
	}
	return nil, fmt.Errorf("pqclient: no seed served a cluster map: %w", firstErr)
}

// Map returns the active cluster map.
func (cc *ClusterClient) Map() *wire.ClusterMap { return cc.m.Load() }

// MapVersion returns the active map's version.
func (cc *ClusterClient) MapVersion() uint64 { return cc.m.Load().Version }

// Close severs every node's connection pool. Stashed items (see
// Stashed) are lost with the process; drain queues to zero first.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.closed = true
	for _, c := range cc.nodes {
		c.Close()
	}
	return nil
}

// Stashed reports how many put-back items are currently parked
// client-side across all queues (0 at quiescence after a full drain).
func (cc *ClusterClient) Stashed() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	n := 0
	for _, s := range cc.stash {
		n += len(s)
	}
	return n
}

// node returns (dialing if needed) the pooled client for addr.
func (cc *ClusterClient) node(addr string) (*Client, error) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil, ErrClosed
	}
	if c := cc.nodes[addr]; c != nil {
		cc.mu.Unlock()
		return c, nil
	}
	cc.mu.Unlock()
	// Dial outside the lock; losers of a dial race are closed.
	c, err := Dial(cc.cfg.nodeConfig(addr))
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		c.Close()
		return nil, ErrClosed
	}
	if prev := cc.nodes[addr]; prev != nil {
		c.Close()
		return prev, nil
	}
	cc.nodes[addr] = c
	return c, nil
}

// refreshFrom fetches addr's STATS for queue and adopts its cluster
// map when newer than (or replacing a nil) current map.
func (cc *ClusterClient) refreshFrom(ctx context.Context, queue, addr string) error {
	c, err := cc.node(addr)
	if err != nil {
		return err
	}
	st, err := c.Stats(ctx, queue)
	if err != nil {
		return err
	}
	if st.Cluster == nil {
		return fmt.Errorf("pqclient: node %s serves no cluster map (not in cluster mode?)", addr)
	}
	m, err := st.Cluster.Map()
	if err != nil {
		return fmt.Errorf("pqclient: node %s serves a bad cluster map: %w", addr, err)
	}
	for {
		cur := cc.m.Load()
		if cur != nil && cur.Version >= m.Version {
			return nil // nothing newer
		}
		if cc.m.CompareAndSwap(cur, m) {
			return nil
		}
	}
}

// RefreshMap polls every node (best-effort) and adopts the newest map
// it sees, returning the active version afterwards.
func (cc *ClusterClient) RefreshMap(ctx context.Context, queue string) (uint64, error) {
	m := cc.m.Load()
	var firstErr error
	for _, n := range m.Nodes {
		if err := cc.refreshFrom(ctx, queue, n.Addr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if v := cc.MapVersion(); v > m.Version {
		return v, nil
	}
	return cc.MapVersion(), firstErr
}

// ownerAddr resolves pri's owner under m.
func ownerAddr(m *wire.ClusterMap, pri int) (string, error) {
	n, ok := m.OwnerOf(pri)
	if !ok {
		return "", fmt.Errorf("pqclient: priority %d outside the cluster map's [0,%d)", pri, m.Priorities)
	}
	return m.Nodes[n].Addr, nil
}

// Insert routes one insert to the priority's owner, refreshing the map
// and re-routing (bounded) when the addressed node NACKs with
// WRONG_NODE.
func (cc *ClusterClient) Insert(ctx context.Context, queue string, pri int, value []byte) error {
	if pri < 0 {
		return fmt.Errorf("pqclient: negative priority %d", pri)
	}
	hint := ""
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		m := cc.m.Load()
		addr := hint
		hint = ""
		if addr == "" {
			var err error
			if addr, err = ownerAddr(m, pri); err != nil {
				return err
			}
		}
		c, err := cc.node(addr)
		if err != nil {
			return err
		}
		err = c.Insert(ctx, queue, pri, value)
		var wn *WrongNodeError
		if !errors.As(err, &wn) {
			return err
		}
		lastErr = err
		// The NACKing node's map disagrees with ours; refetch from it
		// (best-effort — it is reachable, it just answered) and route
		// again. If the refreshed map still points at the same node,
		// fall back to the NACK's owner hint once.
		cc.refreshFrom(ctx, queue, addr)
		if again, err2 := ownerAddr(cc.m.Load(), pri); err2 == nil && again == addr && wn.Owner != "" {
			hint = wn.Owner
		}
	}
	return lastErr
}

// InsertBatch splits the batch by owning node and sends the pieces
// concurrently. accepted is the total across nodes (not a prefix — the
// batch is delivered in per-node pieces); a *RetryError accompanies a
// short count when some node shed, and a WRONG_NODE NACK refreshes the
// map and retries that node's piece once before surfacing.
func (cc *ClusterClient) InsertBatch(ctx context.Context, queue string, items []Item) (accepted int, err error) {
	if len(items) == 0 {
		return 0, nil
	}
	m := cc.m.Load()
	byNode := make(map[string][]Item)
	for _, it := range items {
		addr, err := ownerAddr(m, it.Pri)
		if err != nil {
			return 0, err
		}
		byNode[addr] = append(byNode[addr], it)
	}
	var (
		mu      sync.Mutex
		total   int
		retry   *RetryError
		firstEr error
		wg      sync.WaitGroup
	)
	for addr, part := range byNode {
		wg.Add(1)
		go func(addr string, part []Item) {
			defer wg.Done()
			n, err := cc.insertBatchNode(ctx, queue, addr, part)
			mu.Lock()
			defer mu.Unlock()
			total += n
			var re *RetryError
			if errors.As(err, &re) {
				if retry == nil || re.After > retry.After {
					retry = re
				}
			} else if err != nil && firstEr == nil {
				firstEr = err
			}
		}(addr, part)
	}
	wg.Wait()
	if firstEr != nil {
		return total, firstEr
	}
	if retry != nil {
		return total, retry
	}
	return total, nil
}

// insertBatchNode sends one node's piece, re-routing once on a
// WRONG_NODE NACK after refreshing the map.
func (cc *ClusterClient) insertBatchNode(ctx context.Context, queue, addr string, part []Item) (int, error) {
	c, err := cc.node(addr)
	if err != nil {
		return 0, err
	}
	n, err := c.InsertBatch(ctx, queue, part)
	var wn *WrongNodeError
	if !errors.As(err, &wn) {
		return n, err
	}
	// Stale map: nothing was admitted (misrouted batches are NACKed
	// whole). Re-split the piece under the refreshed map and resend.
	cc.refreshFrom(ctx, queue, addr)
	m := cc.m.Load()
	byNode := make(map[string][]Item)
	for _, it := range part {
		a, err := ownerAddr(m, it.Pri)
		if err != nil {
			return 0, err
		}
		byNode[a] = append(byNode[a], it)
	}
	total := 0
	for a, p := range byNode {
		c, err := cc.node(a)
		if err != nil {
			return total, err
		}
		n, err := c.InsertBatch(ctx, queue, p)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// pickTwo samples two distinct node indices.
func (cc *ClusterClient) pickTwo(n int) (int, int) {
	var i, j int
	cc.mu.Lock()
	if cc.rng != nil {
		i = cc.rng.Intn(n)
		j = cc.rng.Intn(n - 1)
	} else {
		i = rand.Intn(n)
		j = rand.Intn(n - 1)
	}
	cc.mu.Unlock()
	if j >= i {
		j++
	}
	return i, j
}

// stashPop removes and returns the most urgent stashed item for queue.
func (cc *ClusterClient) stashPop(queue string) (Item, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	s := cc.stash[queue]
	if len(s) == 0 {
		return Item{}, false
	}
	best := 0
	for i, it := range s {
		if it.Pri < s[best].Pri {
			best = i
		}
	}
	it := s[best]
	s[best] = s[len(s)-1]
	cc.stash[queue] = s[:len(s)-1]
	return it, true
}

func (cc *ClusterClient) stashPut(queue string, it Item) {
	cc.mu.Lock()
	cc.stash[queue] = append(cc.stash[queue], it)
	cc.mu.Unlock()
}

// putBack hands a two-choice loser back to its owner node; any refusal
// (shed, draining, unreachable, misroute churn) stashes it client-side
// — the RETRY_AFTER hand-off — so the item is never lost and is served
// before further network pops.
func (cc *ClusterClient) putBack(ctx context.Context, queue string, it Item) {
	addr, err := ownerAddr(cc.m.Load(), it.Pri)
	if err == nil {
		var c *Client
		if c, err = cc.node(addr); err == nil {
			err = c.Insert(ctx, queue, it.Pri, it.Value)
		}
	}
	if err != nil {
		cc.stashPut(queue, it)
	}
}

// popResult is one node's answer in a multi-node pop.
type popResult struct {
	it  Item
	ok  bool
	err error
}

func (cc *ClusterClient) popNode(ctx context.Context, queue, addr string) popResult {
	c, err := cc.node(addr)
	if err != nil {
		return popResult{err: err}
	}
	it, ok, err := c.DeleteMin(ctx, queue)
	return popResult{it: it, ok: ok, err: err}
}

// DeleteMin removes and returns the cluster's (approximately) most
// urgent item. Fast path: two-choice pull — sample two distinct nodes,
// pop both concurrently, deliver the better and put the loser back.
// The rank error this relaxation admits is bounded by the same
// winner-of-two argument as MultiQueues (arXiv 2107.01350), with nodes
// in place of internal queues. Slow path: when both samples miss, a
// full sweep in priority order; only all-empty reports ok=false, so an
// item present anywhere is never masked by sampling.
func (cc *ClusterClient) DeleteMin(ctx context.Context, queue string) (it Item, ok bool, err error) {
	if it, ok := cc.stashPop(queue); ok {
		return it, true, nil
	}
	m := cc.m.Load()
	n := len(m.Nodes)
	if n == 1 {
		c, err := cc.node(m.Nodes[0].Addr)
		if err != nil {
			return Item{}, false, err
		}
		return c.DeleteMin(ctx, queue)
	}
	i, j := cc.pickTwo(n)
	var ri, rj popResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ri = cc.popNode(ctx, queue, m.Nodes[i].Addr)
	}()
	rj = cc.popNode(ctx, queue, m.Nodes[j].Addr)
	wg.Wait()
	switch {
	case ri.ok && rj.ok:
		win, lose := ri.it, rj.it
		if rj.it.Pri < ri.it.Pri {
			win, lose = rj.it, ri.it
		}
		cc.putBack(ctx, queue, lose)
		return win, true, nil
	case ri.ok:
		return ri.it, true, nil
	case rj.ok:
		return rj.it, true, nil
	}
	// Both samples missed (empty or erred): sweep every node in
	// ascending order of its lowest owned priority, so a genuinely
	// non-empty cluster serves its best available band.
	firstErr := ri.err
	if firstErr == nil {
		firstErr = rj.err
	}
	for _, ni := range nodesByLowestRange(m) {
		r := cc.popNode(ctx, queue, m.Nodes[ni].Addr)
		if r.ok {
			return r.it, true, nil
		}
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	// A concurrent put-back may have stashed during the sweep.
	if it, ok := cc.stashPop(queue); ok {
		return it, true, nil
	}
	if firstErr != nil {
		// Some node was unreachable: emptiness cannot be certified.
		return Item{}, false, firstErr
	}
	return Item{}, false, nil
}

// nodesByLowestRange orders node indices by the lowest priority each
// owns — the sweep order that preserves cluster-level urgency.
func nodesByLowestRange(m *wire.ClusterMap) []int {
	type nodeLo struct{ idx, lo int }
	nl := make([]nodeLo, len(m.Nodes))
	for i, n := range m.Nodes {
		lo := m.Priorities
		for _, r := range n.Ranges {
			if r.Lo < lo {
				lo = r.Lo
			}
		}
		nl[i] = nodeLo{idx: i, lo: lo}
	}
	sort.Slice(nl, func(a, b int) bool { return nl[a].lo < nl[b].lo })
	out := make([]int, len(nl))
	for i, e := range nl {
		out[i] = e.idx
	}
	return out
}

// DeleteMinBatch removes up to max items, serving the stash first and
// then pulling nodes in ascending range order — the drain path. The
// merged result is sorted by priority. A short (or empty) result means
// every node (and the stash) ran dry.
func (cc *ClusterClient) DeleteMinBatch(ctx context.Context, queue string, max int) ([]Item, error) {
	if max < 1 {
		return nil, fmt.Errorf("pqclient: DeleteMinBatch max must be >= 1, got %d", max)
	}
	var out []Item
	for len(out) < max {
		it, ok := cc.stashPop(queue)
		if !ok {
			break
		}
		out = append(out, it)
	}
	m := cc.m.Load()
	var firstErr error
	for _, ni := range nodesByLowestRange(m) {
		want := max - len(out)
		if want <= 0 {
			break
		}
		c, err := cc.node(m.Nodes[ni].Addr)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		items, err := c.DeleteMinBatch(ctx, queue, want)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out = append(out, items...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Pri < out[b].Pri })
	if len(out) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// NodeStats fetches every node's view of one queue, keyed by node
// address.
func (cc *ClusterClient) NodeStats(ctx context.Context, queue string) (map[string]QueueStats, error) {
	m := cc.m.Load()
	out := make(map[string]QueueStats, len(m.Nodes))
	for _, n := range m.Nodes {
		c, err := cc.node(n.Addr)
		if err != nil {
			return out, err
		}
		st, err := c.Stats(ctx, queue)
		if err != nil {
			return out, err
		}
		out[n.Addr] = st
	}
	return out, nil
}

// Stats aggregates the per-node counters of one queue: counters sum,
// Size sums, and the identity fields come from the map plus the first
// node. The cluster block carries the active map.
func (cc *ClusterClient) Stats(ctx context.Context, queue string) (QueueStats, error) {
	m := cc.m.Load()
	per, err := cc.NodeStats(ctx, queue)
	if err != nil {
		return QueueStats{}, err
	}
	var agg QueueStats
	first := true
	for _, n := range m.Nodes {
		st := per[n.Addr]
		if first {
			agg = st
			first = false
			continue
		}
		agg.Inserts += st.Inserts
		agg.Deletes += st.Deletes
		agg.EmptyDeletes += st.EmptyDeletes
		agg.RetryAfter += st.RetryAfter
		agg.Size += st.Size
		agg.Draining = agg.Draining || st.Draining
		agg.Shards += st.Shards
	}
	agg.Latency = nil // per-node distributions don't merge; use NodeStats
	agg.Durability = nil
	return agg, nil
}

// Drain tells every node to stop admitting inserts to the queue;
// remaining sums what was still queued cluster-wide (including the
// local stash).
func (cc *ClusterClient) Drain(ctx context.Context, queue string) (remaining uint64, err error) {
	m := cc.m.Load()
	var total uint64
	for _, n := range m.Nodes {
		c, err := cc.node(n.Addr)
		if err != nil {
			return total, err
		}
		rem, err := c.Drain(ctx, queue)
		if err != nil {
			return total, err
		}
		total += rem
	}
	cc.mu.Lock()
	total += uint64(len(cc.stash[queue]))
	cc.mu.Unlock()
	return total, nil
}
