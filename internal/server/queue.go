package server

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"pq"
	"pq/internal/obs"
	"pq/internal/wal"
	"pq/internal/wire"
)

// QueueSpec describes one served queue.
type QueueSpec struct {
	// Name addresses the queue in every request frame.
	Name string
	// Algorithm selects the backing implementation (any pq.Algorithm).
	Algorithm pq.Algorithm
	// Priorities is the queue's fixed priority range.
	Priorities int
	// Shards splits the priority range across that many independent
	// sub-queues: shard i serves priorities [i·P/S, (i+1)·P/S).
	// Delete-min scans shards in priority order, so cross-shard
	// ordering is preserved between quiescent points while contention
	// on any single structure drops by ~S. 0 or 1 means unsharded;
	// values above Priorities are clamped.
	Shards int
	// Capacity bounds the number of queued items. Inserts beyond it
	// are shed with RETRY_AFTER instead of queueing unboundedly; the
	// bound is enforced by the paper's bounded fetch-and-decrement
	// counter used as an admission semaphore, so it is approximate
	// while operations are in flight. 0 means unbounded.
	Capacity int64
}

func (spec *QueueSpec) validate() error {
	if spec.Name == "" {
		return fmt.Errorf("server: queue name must be non-empty")
	}
	if spec.Priorities < 1 {
		return fmt.Errorf("server: queue %q: Priorities must be >= 1, got %d", spec.Name, spec.Priorities)
	}
	if spec.Capacity < 0 {
		return fmt.Errorf("server: queue %q: Capacity must be >= 0, got %d", spec.Name, spec.Capacity)
	}
	if spec.Shards < 0 {
		return fmt.Errorf("server: queue %q: Shards must be >= 0, got %d", spec.Name, spec.Shards)
	}
	if spec.Shards == 0 {
		spec.Shards = 1
	}
	if spec.Shards > spec.Priorities {
		spec.Shards = spec.Priorities
	}
	return nil
}

// servedQueue is one registry entry: the sharded backing queues, the
// admission counter, and serving counters.
type servedQueue struct {
	spec   QueueSpec
	shards []pq.Queue[[]byte]
	bases  []int // len Shards+1; shard i serves priorities [bases[i], bases[i+1])

	// admit is the bounded fetch-and-decrement counter of the paper's
	// Section 3.3 used as an admission semaphore: BFaI on insert (a
	// return equal to Capacity means "full", shed), FaD on successful
	// delete-min. nil when Capacity is 0. admitOverflow counts recovered
	// items beyond Capacity that the clamped counter could not book
	// (attachWAL); pops burn this debt before freeing counter slots.
	admit         *pq.Counter
	admitOverflow atomic.Int64
	draining      atomic.Bool

	// wal, when non-nil, makes the queue durable (see durable.go).
	// tagLen is the per-value tag prefix: 4 (priority) in memory, 12
	// (priority + durable id) with a WAL. durMu lets snapshots quiesce
	// the durable operation paths; snapEvery triggers automatic
	// snapshots every that many log records.
	wal        *wal.Log
	tagLen     int
	snapEvery  int
	durMu      sync.RWMutex
	snapActive atomic.Bool

	inserts      atomic.Int64
	deletes      atomic.Int64
	emptyDeletes atomic.Int64
	retryAfter   atomic.Int64
	durErrors    atomic.Int64

	// met holds the per-op latency histograms and shard counters.
	// walMet, set only on durable queues, is the instrumentation hook
	// handed to the queue's WAL.
	met    *queueMetrics
	walMet *obs.WALMetrics

	// rank is the cross-shard rank-error estimator, allocated only for
	// relaxed algorithms behind priority-range sharding (see crossRank).
	rank *crossRank
}

// crossRank corrects the documented understatement of per-shard rank
// accounting behind sharding: a relaxed shard's RelaxStats only counts
// strictly-better items *within its own priority band*, so when a
// MultiQueue shard spuriously declines under TryLock contention and
// the scan falls through to a later shard, the items still queued in
// earlier (strictly better) bands go uncounted. The estimator tracks
// approximate live occupancy per shard and, at each pop served from
// shard s, charges the pop with the occupancy of shards < s — zero
// whenever the scan found earlier shards genuinely empty, so an exact
// scan contributes nothing. Occupancy is maintained with relaxed
// atomics and read without synchronization, so the correction is an
// estimate (exactly right at quiescence), matching the quiescent
// consistency of the counters it merges into.
type crossRank struct {
	occ  []atomic.Int64 // live items per shard (approximate in flight)
	pops atomic.Int64   // pops charged with a cross-shard extra (incl. zero)
	sum  atomic.Int64   // total cross-shard extra over those pops
	max  atomic.Int64   // worst single-pop cross-shard extra
}

// occAdd books n items into shard's occupancy (negative n removes).
func (q *servedQueue) occAdd(shard, n int) {
	if q.rank != nil && n != 0 {
		q.rank.occ[shard].Add(int64(n))
	}
}

// extraBelow sums the live occupancy of shards strictly better than
// shard — the definitely-better items a per-shard rank cannot see.
func (r *crossRank) extraBelow(shard int) int64 {
	var x int64
	for j := 0; j < shard; j++ {
		if n := r.occ[j].Load(); n > 0 {
			x += n
		}
	}
	return x
}

// rankRecord charges n pops served from shard with the current
// better-band occupancy, without touching occupancy itself (for
// callers that account occupancy separately, like the batch paths).
func (q *servedQueue) rankRecord(shard, n int) {
	r := q.rank
	if r == nil || n <= 0 {
		return
	}
	extra := r.extraBelow(shard)
	r.pops.Add(int64(n))
	if extra == 0 {
		return
	}
	r.sum.Add(extra * int64(n))
	for {
		cur := r.max.Load()
		if extra <= cur || r.max.CompareAndSwap(cur, extra) {
			return
		}
	}
}

// rankPopped records n pops served from shard and removes them from
// its occupancy, charging each with the current better-band occupancy.
func (q *servedQueue) rankPopped(shard, n int) {
	if q.rank == nil || n <= 0 {
		return
	}
	q.rankRecord(shard, n)
	q.rank.occ[shard].Add(int64(-n))
}

func newServedQueue(spec QueueSpec, concurrency int) (*servedQueue, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	q := &servedQueue{spec: spec, tagLen: 4}
	q.bases = make([]int, spec.Shards+1)
	for i := 0; i <= spec.Shards; i++ {
		q.bases[i] = i * spec.Priorities / spec.Shards
	}
	for i := 0; i < spec.Shards; i++ {
		sub, err := pq.New[[]byte](spec.Algorithm, q.bases[i+1]-q.bases[i],
			pq.WithConcurrency(concurrency))
		if err != nil {
			return nil, fmt.Errorf("server: queue %q: %w", spec.Name, err)
		}
		q.shards = append(q.shards, sub)
	}
	if spec.Capacity > 0 {
		q.admit = pq.NewCounterBounds(0, 0, spec.Capacity,
			pq.WithConcurrency(concurrency))
	}
	if pq.IsRelaxed(spec.Algorithm) && spec.Shards > 1 {
		q.rank = &crossRank{occ: make([]atomic.Int64, spec.Shards)}
	}
	q.met = newQueueMetrics(concurrency, len(q.shards))
	return q, nil
}

// shardFor maps a global priority to its shard index.
func (q *servedQueue) shardFor(pri int) int {
	if len(q.shards) == 1 {
		return 0
	}
	// bases is ascending; find the last base <= pri. Hand-rolled binary
	// search: sort.Search takes a closure, which escapes on this path.
	lo, hi := 0, len(q.bases)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.bases[mid] <= pri {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// insertStatus reports how one insert resolved.
type insertStatus int

const (
	insOK   insertStatus = iota // admitted
	insShed                     // shed by admission control or drain
	insBad                      // priority out of range (protocol error)
	insErr                      // durability failure (TError, not shed)
)

// insert admits and stores one item. Values are stored with a 4-byte
// global-priority tag so deleteMin can report the priority it served
// (the native queues only return the value). The envelope comes from
// the wire buffer pool — it.Value may alias a request payload that is
// recycled the moment this returns, so the copy here is load-bearing.
func (q *servedQueue) insert(it wire.Item) (insertStatus, error) {
	if q.wal != nil {
		return q.insertDurable(it)
	}
	pri := int(it.Pri)
	if pri < 0 || pri >= q.spec.Priorities {
		return insBad, nil
	}
	if q.draining.Load() {
		q.retryAfter.Add(1)
		return insShed, nil
	}
	if q.admit != nil {
		if prev := q.admit.BFaI(); prev >= q.spec.Capacity {
			q.retryAfter.Add(1)
			return insShed, nil
		}
	}
	tagged := wire.GetBuf(4 + len(it.Value))
	tagged = binary.BigEndian.AppendUint32(tagged, it.Pri)
	tagged = append(tagged, it.Value...)
	s := q.shardFor(pri)
	q.shards[s].Insert(pri-q.bases[s], tagged)
	q.inserts.Add(1)
	q.noteShardIns(s, 1)
	q.occAdd(s, 1)
	return insOK, nil
}

// noteShardIns / noteShardDel feed the per-shard routing counters.
func (q *servedQueue) noteShardIns(shard, n int) {
	if n > 0 {
		q.met.shardIns[shard].Add(int64(n))
	}
}

func (q *servedQueue) noteShardDel(shard, n int) {
	if n > 0 {
		q.met.shardDel[shard].Add(int64(n))
	}
}

// popRaw removes the most urgent tagged entry from the shards without
// touching the admission counter or serving stats, reporting which
// shard served it; callers either commit the removal with popCommit or
// undo it with putBack.
func (q *servedQueue) popRaw() ([]byte, int, bool) {
	for si, sub := range q.shards {
		if v, ok := sub.DeleteMin(); ok {
			q.rankPopped(si, 1)
			return v, si, true
		}
	}
	return nil, 0, false
}

// putBack returns an entry taken by popRaw to its shard. Since popRaw
// touched nothing but the shard, this fully reverses it — shards have
// no capacity bound, so putBack cannot fail or be shed.
func (q *servedQueue) putBack(tagged []byte) {
	pri := int(binary.BigEndian.Uint32(tagged))
	s := q.shardFor(pri)
	q.shards[s].Insert(pri-q.bases[s], tagged)
	q.occAdd(s, 1)
}

// consumeOverflow takes up to n units of the recovered-beyond-capacity
// debt, returning how many it took. While the debt is positive the
// admission counter stays pinned at Capacity, so inserts keep shedding
// until real occupancy is back under the bound.
func (q *servedQueue) consumeOverflow(n int64) int64 {
	for {
		cur := q.admitOverflow.Load()
		if cur <= 0 {
			return 0
		}
		take := n
		if take > cur {
			take = cur
		}
		if q.admitOverflow.CompareAndSwap(cur, cur-take) {
			return take
		}
	}
}

// popCommit records a popRaw whose item will be delivered: free the
// admission slot and count the delete.
func (q *servedQueue) popCommit() {
	if q.admit != nil && q.consumeOverflow(1) == 0 {
		q.admit.FaD()
	}
	q.deletes.Add(1)
}

// deleteMinEnv scans shards in priority order and removes the most
// urgent item found, returning its raw tagged envelope (layout: 4-byte
// priority, then tagLen-4 durable bytes, then the value). Ownership of
// the envelope — a pooled buffer — transfers to the caller, which must
// wire.PutBuf it once the bytes are no longer referenced.
func (q *servedQueue) deleteMinEnv() ([]byte, bool, error) {
	if q.wal != nil {
		return q.deleteMinEnvDurable()
	}
	v, si, ok := q.popRaw()
	if !ok {
		q.emptyDeletes.Add(1)
		return nil, false, nil
	}
	q.popCommit()
	q.noteShardDel(si, 1)
	return v, true, nil
}

// deleteMin is the copying convenience over deleteMinEnv: the returned
// Item owns its value (tests and non-hot-path callers use this).
func (q *servedQueue) deleteMin() (wire.Item, bool, error) {
	env, ok, err := q.deleteMinEnv()
	if err != nil || !ok {
		return wire.Item{}, ok, err
	}
	it := wire.Item{
		Pri:   binary.BigEndian.Uint32(env),
		Value: append([]byte(nil), env[q.tagLen:]...),
	}
	wire.PutBuf(env)
	return it, true, nil
}

// insertBatch admits and stores a whole batch: one multi-unit bounded
// increment reserves admission slots for the accepted prefix, and each
// shard receives its share through the queues' native InsertBatch fast
// path. Priorities must already be validated (the frame handler checks
// the whole batch up front). It reports how many items were accepted;
// the remainder were shed.
func (q *servedQueue) insertBatch(items []wire.Item) (int, error) {
	if q.wal != nil {
		return q.insertBatchDurable(items)
	}
	if len(items) == 0 {
		return 0, nil
	}
	if q.draining.Load() {
		q.retryAfter.Add(int64(len(items)))
		return 0, nil
	}
	accepted := len(items)
	if q.admit != nil {
		// AddN clamps at Capacity and returns the previous value, so the
		// grant is exactly the slots the counter actually took.
		prev := q.admit.AddN(int64(len(items)))
		granted := q.spec.Capacity - prev
		if granted < 0 {
			granted = 0
		}
		if granted > int64(len(items)) {
			granted = int64(len(items))
		}
		accepted = int(granted)
		if rej := len(items) - accepted; rej > 0 {
			q.retryAfter.Add(int64(rej))
		}
		if accepted == 0 {
			return 0, nil
		}
	}
	byShard := make(map[int][]pq.Item[[]byte])
	for _, it := range items[:accepted] {
		pri := int(it.Pri)
		tagged := wire.GetBuf(4 + len(it.Value))
		tagged = binary.BigEndian.AppendUint32(tagged, it.Pri)
		tagged = append(tagged, it.Value...)
		s := q.shardFor(pri)
		byShard[s] = append(byShard[s], pq.Item[[]byte]{Pri: pri - q.bases[s], Val: tagged})
	}
	for s, batch := range byShard {
		pq.InsertBatch(q.shards[s], batch)
		q.noteShardIns(s, len(batch))
		q.occAdd(s, len(batch))
	}
	q.inserts.Add(int64(accepted))
	return accepted, nil
}

// putBackN returns entries taken from a shard's DeleteMinBatch to that
// shard in one native batch. Like putBack it touches nothing but the
// shard, so every entry goes back exactly once and cannot be shed.
func (q *servedQueue) putBackN(shard int, got []pq.Item[[]byte]) {
	batch := make([]pq.Item[[]byte], len(got))
	for i, it := range got {
		pri := int(binary.BigEndian.Uint32(it.Val))
		batch[i] = pq.Item[[]byte]{Pri: pri - q.bases[shard], Val: it.Val}
	}
	pq.InsertBatch(q.shards[shard], batch)
	q.occAdd(shard, len(got))
}

// popCommitN records n pops whose items will be delivered: one
// multi-unit decrement frees their admission slots and counts them.
func (q *servedQueue) popCommitN(n int) {
	if n <= 0 {
		return
	}
	if q.admit != nil {
		if rem := int64(n) - q.consumeOverflow(int64(n)); rem > 0 {
			q.admit.SubN(rem)
		}
	}
	q.deletes.Add(int64(n))
}

// deleteMinBatch removes up to max items whose combined TItems encoding
// stays within budget payload bytes, pulling from each shard through
// the queues' native DeleteMinBatch fast path. Results are appended to
// envs as raw tagged envelopes (pooled buffers — the caller takes
// ownership exactly as with deleteMinEnv); pass a recycled scratch
// slice to keep this path allocation-free. An item that would overflow
// the budget goes back to its shard un-popped, so a response frame
// never exceeds the wire limit and no popped item is ever dropped. Any
// single admitted item fits (values are capped at wire.MaxValue), so
// progress is guaranteed: the first pop is always kept. A short result
// means the queue ran dry or a shard declined under contention; the
// client just asks again.
func (q *servedQueue) deleteMinBatch(max, budget int, envs [][]byte) ([][]byte, error) {
	if q.wal != nil {
		return q.deleteMinBatchDurable(max, budget, envs)
	}
	n0 := len(envs)
	bytes := 4 // item-count prefix
	for si, sub := range q.shards {
		want := max - (len(envs) - n0)
		if want <= 0 {
			return envs, nil
		}
		got := pq.DeleteMinBatch(sub, want)
		if len(got) == 0 {
			continue // shard dry: move to the next priority band
		}
		kept := 0
		for _, item := range got {
			v := item.Val
			// Encoded size: pri(4) + bloblen(4) + value bytes.
			sz := 8 + len(v) - q.tagLen
			if len(envs) > n0 && bytes+sz > budget {
				break
			}
			bytes += sz
			envs = append(envs, v)
			kept++
		}
		q.popCommitN(kept)
		q.noteShardDel(si, kept)
		q.rankRecord(si, kept)
		q.occAdd(si, -len(got)) // putBackN below re-books the un-kept tail
		if kept < len(got) {
			// Budget exhausted: the remainder goes back exactly once.
			q.putBackN(si, got[kept:])
			return envs, nil
		}
	}
	if len(envs)-n0 < max {
		q.emptyDeletes.Add(1)
	}
	return envs, nil
}

// stats snapshots the serving counters.
func (q *servedQueue) stats() wire.QueueStats {
	ins, del := q.inserts.Load(), q.deletes.Load()
	st := wire.QueueStats{
		Queue:        q.spec.Name,
		Algorithm:    string(q.spec.Algorithm),
		Priorities:   q.spec.Priorities,
		Shards:       q.spec.Shards,
		Capacity:     q.spec.Capacity,
		Inserts:      ins,
		Deletes:      del,
		EmptyDeletes: q.emptyDeletes.Load(),
		RetryAfter:   q.retryAfter.Load(),
		Size:         ins - del,
		Draining:     q.draining.Load(),
		StatsVersion: wire.StatsVersion,
	}
	st.Latency = q.latencyStats()
	if q.wal != nil {
		ws := q.wal.Stats()
		st.Durability = &wire.DurabilityStats{
			FsyncPolicy:          ws.Policy,
			LastLSN:              ws.LastLSN,
			SnapshotLSN:          ws.SnapshotLSN,
			Segments:             ws.Segments,
			WALBytes:             ws.WALBytes,
			Appends:              ws.Appends,
			Fsyncs:               ws.Syncs,
			Snapshots:            ws.Snapshots,
			RecordsSinceSnapshot: ws.RecordsSinceSnapshot,
			RecoveredItems:       ws.RecoveredItems,
			ReplayedRecords:      ws.ReplayedRecords,
			TornTail:             ws.TornTail,
		}
		if q.walMet != nil {
			fd := distFromHist(q.walMet.FsyncNanos.Snapshot())
			gc := distFromHist(q.walMet.CommitRecords.Snapshot())
			st.Durability.FsyncLatency = &fd
			st.Durability.GroupCommit = &gc
		}
	}
	return st
}

// peek returns up to max of the most urgent items without consuming
// them: each shard is batch-popped and immediately restored. Durable
// queues are quiesced under the snapshot lock for an exact view;
// in-memory queues peek live, so a concurrent delete-min can briefly
// see the queue empty — acceptable for the debug endpoint this serves.
func (q *servedQueue) peek(max int) []wire.Item {
	if max <= 0 {
		return nil
	}
	if q.wal != nil {
		q.durMu.Lock()
		defer q.durMu.Unlock()
	}
	var out []wire.Item
	for si, sub := range q.shards {
		want := max - len(out)
		if want <= 0 {
			break
		}
		got := pq.DeleteMinBatch(sub, want)
		if len(got) == 0 {
			continue
		}
		q.occAdd(si, -len(got)) // putBackN below books them back in
		for _, it := range got {
			v := it.Val
			// Copy: the envelope goes straight back into the live queue
			// and may be popped, delivered, and recycled while the debug
			// snapshot is still being rendered.
			out = append(out, wire.Item{
				Pri:   binary.BigEndian.Uint32(v),
				Value: append([]byte(nil), v[q.tagLen:]...),
			})
		}
		q.putBackN(si, got)
	}
	return out
}

// size is the approximate queued-item count.
func (q *servedQueue) size() int64 { return q.inserts.Load() - q.deletes.Load() }

// relaxed reports whether the backing algorithm trades exact delete-min
// order for scalability.
func (q *servedQueue) relaxed() bool { return pq.IsRelaxed(q.spec.Algorithm) }

// relaxStats merges the rank-error accounting of every shard and then
// applies the cross-shard estimator (crossRank): per-shard ranks only
// see their own priority band, so with Shards > 1 the merged RankSum
// and RankMax are corrected by the estimator's better-band occupancy
// charges. The per-rank Counts histogram (and so the quantiles) stays
// within-shard — a pop's within-shard rank and its cross-shard extra
// cannot be aligned after the fact — which the mean and max no longer
// suffer from. ok is false for exact algorithms, which carry no such
// accounting.
func (q *servedQueue) relaxStats() (pq.RelaxStats, bool) {
	var total pq.RelaxStats
	found := false
	for _, sub := range q.shards {
		if rs, ok := pq.RelaxStatsOf(sub); ok {
			total = total.Merge(rs)
			found = true
		}
	}
	if found && total.Tracked && q.rank != nil {
		total.RankSum += q.rank.sum.Load()
		// The true worst pop is its within-shard rank plus its
		// cross-shard extra; those aren't aligned per pop, so take the
		// larger of the two maxima — still a lower bound on the true
		// max, but no longer blind to cross-shard error.
		if m := q.rank.max.Load(); m > total.RankMax {
			total.RankMax = m
		}
	}
	return total, found
}
