package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pq/pqclient"
)

// clientSpan is one traced pqclient call. link is the id of the call's
// first item (inserted or delivered), which ties it to the server span
// of the request that carried that item; 0 with linked=false when the
// call moved no item.
type clientSpan struct {
	start, end int64 // ns since the tracer's epoch
	insert     bool
	linked     bool
	link       uint64
}

// loadResult is what the timed closed loop did.
type loadResult struct {
	calls       int64
	insertCalls int64
	deleteCalls int64
	failedCalls int64
	firstErr    error
	items       int64 // admitted plus delivered
	valueBytes  int64 // value bytes admitted
	corrupt     int
	acked       []uint64
	delivered   []uint64
	latUS       []float64 // per call, client-observed
	spans       []clientSpan
	elapsed     time.Duration

	windows []window
}

// loadWindows is how many equal windows a timed phase is cut into.
// Each call counts in the window it completed in; end-to-end metrics
// are medians over windows, so a burst of host noise moves a few
// windows instead of the whole figure.
const loadWindows = 12

// window is one slice of a timed phase.
type window struct {
	dur    time.Duration
	items  int64
	cpu    time.Duration // CPU used by pqd and this process, when sampled
	srvCPU time.Duration // CPU used by pqd alone, when sampled
	steal  float64       // host CPU stolen by the hypervisor, percent
}

func (r *loadResult) itemsPerSec() float64 { return ratio(float64(r.items), r.elapsed.Seconds()) }

// unstolen scales CPU time measured over an interval by the share of
// host CPU the hypervisor did not steal in that interval. On the 2-vCPU
// VM the benchmark was built on, the process CPU that batch-bulk
// charged per item rose almost one for one with host steal (3.4 µs at
// 12% steal, 4.6 µs at 30%), and steal stayed high for minutes, so no
// window of a run was calm. Scaled this way, ten runs at 8-30% steal
// spread 0.04 (interquartile range over median) instead of 0.24.
func unstolen(d time.Duration, stealPct float64) time.Duration {
	return time.Duration(float64(d) * (1 - stealPct/100))
}

// windowMedian is the median over ws of f.
func windowMedian(ws []window, f func(w *window) float64) float64 {
	xs := make([]float64, len(ws))
	for i := range ws {
		xs[i] = f(&ws[i])
	}
	return median(xs)
}

func medianCPUPerItemUS(ws []window) float64 {
	return windowMedian(ws, func(w *window) float64 { return usPerItem(unstolen(w.cpu, w.steal), w.items) })
}

func medianServerCPUPerItemUS(ws []window) float64 {
	return windowMedian(ws, func(w *window) float64 { return usPerItem(unstolen(w.srvCPU, w.steal), w.items) })
}

func usPerItem(d time.Duration, items int64) float64 {
	return ratio(float64(d.Nanoseconds())/1e3, float64(items))
}

// callerState is one caller's private share of a loadResult.
type callerState struct {
	loadResult
	val   []byte
	vals  [][]byte // per-item value buffers, reused across batch calls
	batch []pqclient.Item
	got   []pqclient.Item
	ids   []uint64

	winItems [loadWindows]int64
	window   time.Duration
}

// prefill inserts the workload's prefill items (ids 0..prefill-1) in
// batches of 64 over w.conns goroutines and returns the acked ids.
func prefill(cl *pqclient.Client, w *workload, seed uint64) ([]uint64, error) {
	const batch = 64
	pris := prefillPriorities(w, seed)
	var (
		mu    sync.Mutex
		acked = make([]uint64, 0, w.prefill)
		wg    sync.WaitGroup
		errs  = make([]error, w.conns)
	)
	for g := 0; g < w.conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			items := make([]pqclient.Item, 0, batch)
			for start := g * batch; start < w.prefill; start += w.conns * batch {
				end := min(start+batch, w.prefill)
				items = items[:0]
				for id := start; id < end; id++ {
					items = append(items, pqclient.Item{Pri: pris[id], Value: appendValue(nil, uint64(id), w.valueSize)})
				}
				n, err := cl.InsertBatch(context.Background(), queueName, items)
				mu.Lock()
				for id := start; id < start+n; id++ {
					acked = append(acked, uint64(id))
				}
				mu.Unlock()
				if err != nil {
					errs[g] = fmt.Errorf("prefill: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return acked, err
		}
	}
	return acked, nil
}

// runLoad drives the workload closed loop for d: w.callers goroutines,
// each sending its next call when the previous one returned. With tr
// non-nil every call is recorded as a span. With cpu non-nil, pqd's and
// this process's CPU are sampled at every window boundary.
func runLoad(cl *pqclient.Client, w *workload, seed uint64, d time.Duration, tr *tracer, cpu func() (server, self time.Duration)) loadResult {
	states := make([]*callerState, w.callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	var t0 time.Time
	win := d / loadWindows
	for c := range states {
		st := &callerState{}
		st.window = win
		states[c] = st
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			callerLoop(cl, w, newOpStream(w, seed, c), c, t0, t0.Add(d), st, tr)
		}(c)
	}
	t0 = time.Now()
	var srvMarks, selfMarks []time.Duration
	var hostMarks []cpuTimes
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := 0; i <= loadWindows; i++ {
			time.Sleep(time.Until(t0.Add(time.Duration(i) * win)))
			hostMarks = append(hostMarks, readCPUTimes())
			if cpu != nil {
				srv, self := cpu()
				srvMarks = append(srvMarks, srv)
				selfMarks = append(selfMarks, self)
			}
		}
	}()
	close(start)
	wg.Wait()
	<-sampled
	var out loadResult
	out.elapsed = time.Since(t0)
	out.windows = make([]window, loadWindows)
	for i := range out.windows {
		out.windows[i].dur = win
		if i+1 < len(srvMarks) {
			out.windows[i].srvCPU = srvMarks[i+1] - srvMarks[i]
			out.windows[i].cpu = out.windows[i].srvCPU + selfMarks[i+1] - selfMarks[i]
		}
		out.windows[i].steal = stealPct(hostMarks[i], hostMarks[i+1])
	}
	for _, st := range states {
		r := &st.loadResult
		out.calls += r.calls
		out.insertCalls += r.insertCalls
		out.deleteCalls += r.deleteCalls
		out.failedCalls += r.failedCalls
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		out.items += r.items
		out.valueBytes += r.valueBytes
		out.corrupt += r.corrupt
		out.acked = append(out.acked, r.acked...)
		out.delivered = append(out.delivered, r.delivered...)
		out.latUS = append(out.latUS, r.latUS...)
		out.spans = append(out.spans, r.spans...)
		for i := range out.windows {
			out.windows[i].items += st.winItems[i]
		}
	}
	return out
}

func callerLoop(cl *pqclient.Client, w *workload, ops *opStream, caller int, t0, deadline time.Time, st *callerState, tr *tracer) {
	ctx := context.Background()
	k := 0 // items this caller has inserted
	for time.Now().Before(deadline) {
		insert, pris := ops.next()
		var span clientSpan
		start := time.Now()
		var err error
		moved := 0 // items admitted or delivered
		if insert {
			st.ids = st.ids[:0]
			for range pris {
				st.ids = append(st.ids, itemID(w, caller, k))
				k++
			}
			span.insert, span.linked, span.link = true, true, st.ids[0]
			accepted := 0
			if w.batch == 1 {
				st.val = appendValue(st.val[:0], st.ids[0], w.valueSize)
				if err = cl.Insert(ctx, queueName, pris[0], st.val); err == nil {
					accepted = 1
				}
			} else {
				if len(st.vals) < len(st.ids) {
					st.vals = make([][]byte, len(st.ids))
				}
				st.batch = st.batch[:0]
				for i, id := range st.ids {
					st.vals[i] = appendValue(st.vals[i][:0], id, w.valueSize)
					st.batch = append(st.batch, pqclient.Item{Pri: pris[i], Value: st.vals[i]})
				}
				accepted, err = cl.InsertBatch(ctx, queueName, st.batch)
			}
			st.acked = append(st.acked, st.ids[:accepted]...)
			moved = accepted
			st.valueBytes += int64(accepted * w.valueSize)
			st.insertCalls++
		} else {
			got := st.got[:0]
			if w.batch == 1 {
				var it pqclient.Item
				var ok bool
				if it, ok, err = cl.DeleteMin(ctx, queueName); ok {
					got = append(got, it)
				}
				st.got = got
			} else {
				got, err = cl.DeleteMinBatch(ctx, queueName, w.batch)
			}
			for i, it := range got {
				id, ok := valueID(it.Value, w.valueSize)
				if !ok {
					st.corrupt++
					continue
				}
				if i == 0 {
					span.linked, span.link = true, id
				}
				st.delivered = append(st.delivered, id)
			}
			moved = len(got)
			st.deleteCalls++
		}
		end := time.Now()
		dt := end.Sub(start)
		lat := float64(dt.Nanoseconds()) / 1e3
		win := min(int(end.Sub(t0)/st.window), loadWindows-1)
		st.items += int64(moved)
		st.winItems[win] += int64(moved)
		st.calls++
		if err != nil {
			st.failedCalls++
			if st.firstErr == nil {
				st.firstErr = err
			}
		}
		st.latUS = append(st.latUS, lat)
		if tr != nil {
			span.start = tr.since(start)
			span.end = span.start + dt.Nanoseconds()
			st.spans = append(st.spans, span)
		}
	}
}

// drainAll sends DRAIN and then empties the queue with delete-min
// batches, returning the delivered ids.
func drainAll(cl *pqclient.Client, w *workload) (ids []uint64, corrupt int, err error) {
	ctx := context.Background()
	if _, err := cl.Drain(ctx, queueName); err != nil {
		return nil, 0, fmt.Errorf("drain: %w", err)
	}
	for {
		got, err := cl.DeleteMinBatch(ctx, queueName, 4096)
		if err != nil {
			return ids, corrupt, fmt.Errorf("drain: %w", err)
		}
		if len(got) == 0 {
			return ids, corrupt, nil
		}
		for _, it := range got {
			id, ok := valueID(it.Value, w.valueSize)
			if !ok {
				corrupt++
				continue
			}
			ids = append(ids, id)
		}
	}
}
