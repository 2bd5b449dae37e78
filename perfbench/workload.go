package main

import (
	"encoding/binary"
	"math/rand/v2"
	"strings"
)

// queueName is the one queue every served workload uses.
const queueName = "bench"

// algorithm backs every served queue: the paper's FunnelTree.
const algorithm = "FunnelTree"

// workload is one set of inputs the benchmark runs. Served workloads
// drive pqd closed loop: each caller sends its next request only after
// the previous reply arrived.
type workload struct {
	name string
	sim  bool // paper-fig7: the simulator sweep, no pqd

	priorities int
	shards     int
	capacity   int64
	prefill    int // items queued before timing starts
	valueSize  int // bytes per item value; the first 8 carry its id
	callers    int // concurrent closed-loop callers
	conns      int // pqclient connections they share
	batch      int // items per call; 1 means Insert/DeleteMin
	durable    bool
}

var workloads = []*workload{
	{name: "single-op", priorities: 64, shards: 4, capacity: 1_000_000, prefill: 100_000,
		valueSize: 8, callers: 8, conns: 2, batch: 1},
	{name: "batch-bulk", priorities: 4096, shards: 4, capacity: 1_000_000, prefill: 100_000,
		valueSize: 64, callers: 4, conns: 2, batch: 64},
	{name: "durable-interval", priorities: 64, shards: 4, capacity: 1_000_000, prefill: 100_000,
		valueSize: 8, callers: 8, conns: 2, batch: 1, durable: true},
	{name: "paper-fig7", sim: true},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// opStream is one caller's seeded sequence of operations: a fair coin
// picks insert or delete-min, and each inserted item gets a uniform
// priority. The same (seed, caller) always yields the same sequence.
type opStream struct {
	rng  *rand.Rand
	w    *workload
	pris []int
}

func newOpStream(w *workload, seed uint64, caller int) *opStream {
	return &opStream{rng: rand.New(rand.NewPCG(seed, uint64(caller)+1)), w: w, pris: make([]int, w.batch)}
}

// next returns whether the operation inserts and, if so, the priorities
// of its items (w.batch of them; the slice is reused by the next call).
func (s *opStream) next() (insert bool, pris []int) {
	if s.rng.IntN(2) == 1 {
		return false, nil
	}
	for i := range s.pris {
		s.pris[i] = s.rng.IntN(s.w.priorities)
	}
	return true, s.pris
}

// prefillPriorities are the priorities of the prefill items, ids
// 0..prefill-1, in id order.
func prefillPriorities(w *workload, seed uint64) []int {
	rng := rand.New(rand.NewPCG(seed, 0))
	pris := make([]int, w.prefill)
	for i := range pris {
		pris[i] = rng.IntN(w.priorities)
	}
	return pris
}

// itemID is the id of caller's k-th timed item: ids are dense and
// unique across callers, above the prefill ids.
func itemID(w *workload, caller int, k int) uint64 {
	return uint64(w.prefill) + uint64(k)*uint64(w.callers) + uint64(caller)
}

// appendValue encodes an item value: the id, big-endian, then filler
// bytes derived from it so a delivered value can be checked whole.
func appendValue(dst []byte, id uint64, size int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id)
	for i := 8; i < size; i++ {
		dst = append(dst, byte(id)+byte(i))
	}
	return dst
}

// valueID decodes a delivered value; ok is false when it is not a value
// appendValue produced with this size.
func valueID(v []byte, size int) (id uint64, ok bool) {
	if len(v) != size {
		return 0, false
	}
	id = binary.BigEndian.Uint64(v)
	for i := 8; i < size; i++ {
		if v[i] != byte(id)+byte(i) {
			return id, false
		}
	}
	return id, true
}
