package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pq"
	"pq/internal/wal"
	"pq/internal/wire"
)

// Direct-call layer measurements for the traced run. Each replays the
// workload's seeded inputs into one layer's public functions, with no
// server in between: pq (the native queue and the admission counter
// with one shard's range and occupancy), wire (the frames the workload
// puts on the connection) and wal (the workload's records).

// layerBatch is the batch size of the pq batch metrics; batch-bulk's
// own, and the same for the single-op workloads so they stay
// comparable.
const layerBatch = 64

func measureDirectLayers(o *options, dir string, crash *crashLog, res *result) error {
	if err := measurePQ(o.workload, o.seed, res); err != nil {
		return err
	}
	if err := measureWire(o.workload, o.seed, res); err != nil {
		return err
	}
	return measureWAL(o, dir, crash, res)
}

// shardView is one shard of the workload's queue: its priority range
// and its share of the prefill.
func shardView(w *workload) (pris, occupancy int) {
	return w.priorities / w.shards, w.prefill / w.shards
}

func measurePQ(w *workload, seed uint64, res *result) error {
	alg, err := pq.ParseAlgorithm(algorithm)
	if err != nil {
		return err
	}
	npri, occ := shardView(w)
	q, err := pq.New[uint64](alg, npri, pq.WithConcurrency(2))
	if err != nil {
		return err
	}
	pris := prefillPriorities(w, seed)
	items := make([]pq.Item[uint64], occ)
	for i := range items {
		items[i] = pq.Item[uint64]{Pri: pris[i] % npri, Val: uint64(i)}
	}
	pq.InsertBatch(q, items)
	admit := pq.NewCounterBounds(int64(occ), 0, w.capacity, pq.WithConcurrency(2))

	single := *w
	single.batch = 1
	const opsPerGoroutine = 40000
	insNS, delNS, admNS := runPair(func(g int, sums *[3]opSum) {
		ops := newOpStream(&single, seed, g)
		for i := 0; i < opsPerGoroutine; i++ {
			insert, p := ops.next()
			t0 := time.Now()
			if insert {
				q.Insert(p[0]%npri, uint64(i))
				sums[0].add(time.Since(t0))
			} else {
				q.DeleteMin()
				sums[1].add(time.Since(t0))
			}
			t1 := time.Now()
			if insert {
				admit.BFaI()
			} else {
				admit.FaD()
			}
			sums[2].add(time.Since(t1))
		}
	})
	res.set("pq.insert_ns", insNS)
	res.set("pq.delete_min_ns", delNS)
	res.set("pq.admit_ns", admNS)

	batched := *w
	batched.batch = layerBatch
	const batchesPerGoroutine = 1500
	insB, delB, _ := runPair(func(g int, sums *[3]opSum) {
		ops := newOpStream(&batched, seed, g)
		buf := make([]pq.Item[uint64], layerBatch)
		for i := 0; i < batchesPerGoroutine; i++ {
			insert, p := ops.next()
			if insert {
				for j := range buf {
					buf[j] = pq.Item[uint64]{Pri: p[j] % npri, Val: uint64(i)}
				}
				t0 := time.Now()
				pq.InsertBatch(q, buf)
				sums[0].addN(time.Since(t0), layerBatch)
			} else {
				t0 := time.Now()
				got := pq.DeleteMinBatch(q, layerBatch)
				sums[1].addN(time.Since(t0), len(got))
			}
		}
	})
	res.set("pq.insert_batch_ns_per_item", insB)
	res.set("pq.delete_min_batch_ns_per_item", delB)
	return nil
}

// opSum accumulates time over a count of operations or items.
type opSum struct {
	d time.Duration
	n int
}

func (s *opSum) add(d time.Duration)         { s.addN(d, 1) }
func (s *opSum) addN(d time.Duration, n int) { s.d += d; s.n += n }
func (s opSum) nsPer() float64               { return ratio(float64(s.d.Nanoseconds()), float64(s.n)) }
func (s *opSum) merge(o opSum)               { s.d += o.d; s.n += o.n }

// runPair runs body on two goroutines (the load's GOMAXPROCS) and
// returns the mean ns per unit of each of its three sums.
func runPair(body func(g int, sums *[3]opSum)) (a, b, c float64) {
	var wg sync.WaitGroup
	per := make([][3]opSum, 2)
	for g := range per {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body(g, &per[g])
		}(g)
	}
	wg.Wait()
	var tot [3]opSum
	for _, p := range per {
		for i := range tot {
			tot[i].merge(p[i])
		}
	}
	return tot[0].nsPer(), tot[1].nsPer(), tot[2].nsPer()
}

// measureWire encodes, then decodes, the request and response frames of
// the first calls of caller 0's op stream.
func measureWire(w *workload, seed uint64, res *result) error {
	calls := 20000
	if w.batch > 1 {
		calls = 2000
	}
	ops := newOpStream(w, seed, 0)
	type call struct {
		insert bool
		pris   []int
	}
	plan := make([]call, calls)
	for i := range plan {
		insert, pris := ops.next()
		plan[i] = call{insert, append([]int(nil), pris...)}
	}
	values := make([][]byte, w.batch)
	for i := range values {
		values[i] = appendValue(nil, uint64(i), w.valueSize)
	}
	witems := make([]wire.Item, w.batch)

	encodeAll := func(stream []byte) []byte {
		for i, c := range plan {
			id := uint32(i)
			for j := range witems {
				witems[j] = wire.Item{Pri: uint32(j % w.priorities), Value: values[j]}
			}
			if c.insert {
				for j, p := range c.pris {
					witems[j].Pri = uint32(p)
				}
			}
			var buf []byte
			var off int
			switch {
			case c.insert && w.batch == 1:
				buf, off = wire.BeginFrame(stream, wire.TInsert, id)
				buf = wire.Insert{Queue: queueName, Item: witems[0]}.Append(buf)
				stream = wire.EndFrame(buf, off)
				buf, off = wire.BeginFrame(stream, wire.TInsertOK, id)
				buf = wire.InsertOK{Accepted: 1}.Append(buf)
			case c.insert:
				buf, off = wire.BeginFrame(stream, wire.TInsertBatch, id)
				buf = wire.InsertBatch{Queue: queueName, Items: witems}.Append(buf)
				stream = wire.EndFrame(buf, off)
				buf, off = wire.BeginFrame(stream, wire.TInsertOK, id)
				buf = wire.InsertOK{Accepted: uint32(w.batch)}.Append(buf)
			case w.batch == 1:
				buf, off = wire.BeginFrame(stream, wire.TDeleteMin, id)
				buf = wire.QueueReq{Queue: queueName}.Append(buf)
				stream = wire.EndFrame(buf, off)
				buf, off = wire.BeginFrame(stream, wire.TItem, id)
				buf = wire.AppendItem(buf, witems[0])
			default:
				buf, off = wire.BeginFrame(stream, wire.TDeleteMinBatch, id)
				buf = wire.DeleteMinBatch{Queue: queueName, Max: uint32(w.batch)}.Append(buf)
				stream = wire.EndFrame(buf, off)
				buf, off = wire.BeginFrame(stream, wire.TItems, id)
				buf = wire.Items{Items: witems}.Append(buf)
			}
			stream = wire.EndFrame(buf, off)
		}
		return stream
	}
	// The first pass sizes the buffer, so the timed pass counts only the
	// encoders' own allocations.
	stream := encodeAll(nil)
	items, frames := calls*w.batch, 2*calls

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	t0 := time.Now()
	stream = encodeAll(stream[:0])
	encode := time.Since(t0)

	var fr wire.FrameReader
	r := bytes.NewReader(stream)
	scratch := make([]wire.Item, 0, w.batch)
	decoded := 0
	t1 := time.Now()
	for {
		f, err := fr.ReadFrame(r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("wire: decode: %w", err)
		}
		switch f.Type {
		case wire.TInsert:
			_, err = wire.DecodeInsertView(f.Payload)
		case wire.TInsertBatch:
			var m wire.InsertBatchView
			m, err = wire.DecodeInsertBatchView(f.Payload, scratch)
			scratch = m.Items
		case wire.TDeleteMin:
			_, err = wire.DecodeQueueReqView(f.Payload)
		case wire.TDeleteMinBatch:
			_, err = wire.DecodeDeleteMinBatchView(f.Payload)
		case wire.TInsertOK:
			_, err = wire.DecodeInsertOK(f.Payload)
		case wire.TItem:
			_, err = wire.DecodeItem(f.Payload)
		case wire.TItems:
			_, err = wire.DecodeItems(f.Payload)
		}
		wire.PutBuf(f.Payload)
		if err != nil {
			return fmt.Errorf("wire: decode %v: %w", f.Type, err)
		}
		decoded++
	}
	decode := time.Since(t1)
	runtime.ReadMemStats(&ms)
	if decoded != frames {
		return fmt.Errorf("wire: decoded %d frames, encoded %d", decoded, frames)
	}
	res.set("wire.encode_ns_per_item", ratio(float64(encode.Nanoseconds()), float64(items)))
	res.set("wire.decode_ns_per_item", ratio(float64(decode.Nanoseconds()), float64(items)))
	res.set("wire.allocs_per_frame", ratio(float64(ms.Mallocs-mallocs0), float64(frames)))
	return nil
}

// walReplayRepeats is how many times the replay is timed; wal.replay_s
// is the median.
const walReplayRepeats = 3

// measureWAL appends the workload's records under the interval policy,
// timing each append, then times wal.Open replaying a 100,000-item
// log: the crash log for a durable workload, else a log of the prefill
// written through the same API.
func measureWAL(o *options, dir string, crash *crashLog, res *result) error {
	w := o.workload
	l, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal-append"), Policy: wal.SyncInterval})
	if err != nil {
		return err
	}
	appends := 10000
	if w.batch > 1 {
		appends = 1000
	}
	var mu sync.Mutex
	var lat []float64
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops := newOpStream(w, o.seed, g)
			local := make([]float64, 0, appends)
			items := make([]wal.Item, w.batch)
			ids := make([]uint64, w.batch)
			k := 0
			for i := 0; i < appends; i++ {
				insert, pris := ops.next()
				var err error
				var t0 time.Time
				if insert {
					for j, p := range pris {
						id := itemID(w, g, k)
						k++
						items[j] = wal.Item{ID: id, Pri: uint32(p), Value: appendValue(items[j].Value[:0], id, w.valueSize)}
					}
					t0 = time.Now()
					err = l.AppendInsert(items)
				} else {
					for j := range ids {
						ids[j] = uint64(i*w.batch + j)
					}
					t0 = time.Now()
					err = l.AppendDelete(ids)
				}
				local = append(local, float64(time.Since(t0).Nanoseconds())/1e3)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return fmt.Errorf("wal: append: %w", firstErr)
	}
	res.set("wal.append_us_p50", quantile(lat, 0.50))
	res.set("wal.append_us_p99", quantile(lat, 0.99))

	src, want := filepath.Join(dir, "wal-replay-src"), w.prefill
	if crash != nil {
		src, want = filepath.Join(crash.dir, queueName), len(crash.acked)
	} else if err := writePrefillLog(w, o.seed, src); err != nil {
		return err
	}
	replays := make([]float64, 0, walReplayRepeats)
	for i := 0; i < walReplayRepeats; i++ {
		d := filepath.Join(dir, "wal-replay-"+strconv.Itoa(i))
		if err := copyTree(src, d); err != nil {
			return err
		}
		t0 := time.Now()
		l, rec, err := wal.Open(wal.Options{Dir: d, Policy: wal.SyncInterval})
		el := time.Since(t0)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if err := l.Close(); err != nil {
			return err
		}
		if len(rec.Items) != want {
			res.fail(absDiff(int64(len(rec.Items)), int64(want)), "wal replay recovered %d items, want %d", len(rec.Items), want)
		}
		replays = append(replays, el.Seconds())
	}
	res.set("wal.replay_s", median(replays))
	return nil
}

// writePrefillLog writes the prefill as insert records of 64 items, the
// shape pqd logs the prefill's INSERT_BATCH frames in.
func writePrefillLog(w *workload, seed uint64, dir string) error {
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncInterval})
	if err != nil {
		return err
	}
	pris := prefillPriorities(w, seed)
	items := make([]wal.Item, 0, 64)
	for start := 0; start < w.prefill; start += 64 {
		items = items[:0]
		for id := start; id < min(start+64, w.prefill); id++ {
			items = append(items, wal.Item{ID: uint64(id), Pri: uint32(pris[id]), Value: appendValue(nil, uint64(id), w.valueSize)})
		}
		if err := l.AppendInsert(items); err != nil {
			l.Close()
			return err
		}
	}
	return l.Close()
}
