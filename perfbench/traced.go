package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pq"
	"pq/internal/server"
	"pq/internal/wal"
	"pq/internal/wire"
	"pq/pqclient"
)

// servedLayerMetrics come from the in-process server and the traced
// load; directLayerMetrics from direct calls into pq, wire and wal;
// durableMetrics from the served WAL; simMetrics from the simulator.
var (
	servedLayerMetrics = []string{
		"pqclient.items_per_s", "pqclient.call_us_p50", "pqclient.call_us_p99", "pqclient.self_us_p50", "pqclient.self_us_p99", "pqclient.inserts_per_frame",
		"pqclient.allocs_per_call", "pqclient.retries",
		"server.self_us_p50", "server.self_us_p99", "server.frames_per_flush",
		"server.pipeline_depth_p50", "server.wire_bytes_per_item",
		"queue.insert_us_p50", "queue.insert_us_p99", "queue.delete_us_p50", "queue.delete_us_p99",
		"queue.empty_delete_ratio",
		"trace.frames_per_flush_ratio", "trace.writes_per_flush",
		"wal.appends_per_fsync", "wal.group_commit_p50", "wal.fsync_us_p99", "wal.snapshots",
		"wal.disk_bytes_per_user_byte",
	}
	directLayerMetrics = []string{
		"pq.insert_ns", "pq.delete_min_ns", "pq.admit_ns",
		"pq.insert_batch_ns_per_item", "pq.delete_min_batch_ns_per_item",
		"wire.encode_ns_per_item", "wire.decode_ns_per_item", "wire.allocs_per_frame",
		"wal.append_us_p50", "wal.append_us_p99", "wal.replay_s",
	}
	durableMetrics = []string{
		"wal.appends_per_fsync", "wal.group_commit_p50", "wal.fsync_us_p99", "wal.snapshots",
		"wal.disk_bytes_per_user_byte",
	}
	simMetrics = []string{"sim.events_per_cpu_s", "sim.idle_ratio"}
)

// phase is one timed phase against an in-process server.
type phase struct {
	load    loadResult
	m0, m1  promSnapshot
	st0     wire.QueueStats
	st1     wire.QueueStats
	mallocs uint64 // heap allocations during the timed phase
	disk    float64
	writes  int64
}

func (p *phase) delta(name string, labels map[string]string) float64 {
	return p.m1.sum(name, labels) - p.m0.sum(name, labels)
}

func (p *phase) framesPerFlush() float64 {
	return ratio(p.delta("pq_frames_written_total", nil), p.delta("pq_response_flushes_total", nil))
}

// runInProcess hosts the server in this process through server.New,
// AddQueue and Serve, optionally behind the tracing listener, and runs
// one timed phase of d with its exactly-once check.
func runInProcess(o *options, dir string, crash *crashLog, d time.Duration, tr *tracer, res *result) (*phase, error) {
	w := o.workload
	alg, err := pq.ParseAlgorithm(algorithm)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{}
	if crash != nil {
		cfg.DataDir, cfg.Fsync = dir, wal.SyncInterval
		if err := copyTree(crash.dir, dir); err != nil {
			return nil, err
		}
	}
	srv := server.New(cfg)
	if err := srv.AddQueue(server.QueueSpec{Name: queueName, Algorithm: alg,
		Priorities: w.priorities, Shards: w.shards, Capacity: w.capacity}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var l net.Listener = ln
	if tr != nil {
		l = &tracingListener{Listener: ln, tr: tr}
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		if err := <-served; err != nil && !errors.Is(err, server.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	cl, err := pqclient.Dial(pqclient.Config{Addr: ln.Addr().String(), Conns: w.conns})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	var acked []uint64
	if crash != nil {
		acked = crash.acked
	} else if acked, err = prefill(cl, w, o.seed); err != nil {
		return nil, err
	}
	p := &phase{}
	admin := srv.AdminHandler()
	if p.m0, err = scrapeHandler(admin); err != nil {
		return nil, err
	}
	p.st0, _ = srv.QueueStats(queueName)
	disk0, _ := diskWriteBytes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	if tr != nil {
		tr.on.Store(true)
	}
	p.load = runLoad(cl, w, o.seed, d, tr, nil)
	if tr != nil {
		tr.on.Store(false)
		p.writes = tr.writes.Load()
	}
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs0
	disk1, _ := diskWriteBytes()
	p.disk = disk1 - disk0
	p.st1, _ = srv.QueueStats(queueName)
	if p.m1, err = scrapeHandler(admin); err != nil {
		return nil, err
	}
	if err := checkServed(cl, w, acked, &p.load, res); err != nil {
		return nil, err
	}
	if shed := p.delta("pq_queue_shed_total", nil); shed != 0 {
		res.fail(int64(shed), "admission control shed %v items; the workload is sized never to shed", shed)
	}
	return p, nil
}

// runServedTraced is the traced run of a served workload: half the
// time against an untraced in-process server, half against a traced
// one, then direct calls into pq, wire and wal with the workload's
// inputs.
func runServedTraced(o *options) (*result, error) {
	w := o.workload
	// This process hosts both the server and the load here: one P for
	// each, as pqd and the load process each get in the untraced run.
	runtime.GOMAXPROCS(min(2*gomaxprocs, runtime.NumCPU()))
	dir, err := runDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := newResult()
	var crash *crashLog
	if w.durable {
		if crash, err = makeCrashLog(o, filepath.Join(dir, "crashed")); err != nil {
			return nil, err
		}
	}
	half := o.seconds / 2
	plain, err := runInProcess(o, filepath.Join(dir, "plain"), crash, half, nil, res)
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.batch == 1)
	traced, err := runInProcess(o, filepath.Join(dir, "traced"), crash, half, tr, res)
	if err != nil {
		return nil, err
	}

	setServedLayers(res, plain, traced, tr)
	if w.durable {
		setDurableLayers(res, traced)
	} else {
		res.markAbsent("this workload's pqd runs without a WAL", durableMetrics...)
	}
	if err := measureDirectLayers(o, dir, crash, res); err != nil {
		return nil, err
	}
	res.markAbsent("served workloads make no simulator call", simMetrics...)
	return res, writeServedSpans(o, tr, traced.load.spans)
}

func setServedLayers(res *result, plain, traced *phase, tr *tracer) {
	lr := &traced.load
	ins := map[string]string{"op": "insert"}
	insB := map[string]string{"op": "insert_batch"}
	del := map[string]string{"op": "delete_min"}
	delB := map[string]string{"op": "delete_min_batch"}

	// Mean queue-op time per request kind, to subtract from the server
	// span: the server exports it per op, not per request id.
	meanQueueUS := func(ops ...map[string]string) float64 {
		var sum, n float64
		for _, op := range ops {
			sum += traced.delta("pq_queue_op_latency_seconds_sum", op)
			n += traced.delta("pq_queue_op_latency_seconds_count", op)
		}
		return ratio(sum, n) * 1e6
	}
	qIns, qDel := meanQueueUS(ins, insB), meanQueueUS(del, delB)

	var clientSelf, serverSelf []float64
	for _, cs := range lr.spans {
		if !cs.linked {
			continue
		}
		ss, ok := tr.serverSpanOf(cs.link)
		if !ok {
			continue
		}
		sd := float64(ss.end-ss.start) / 1e3
		clientSelf = append(clientSelf, float64(cs.end-cs.start)/1e3-sd)
		q := qDel
		if ss.typ == wire.TInsert || ss.typ == wire.TInsertBatch {
			q = qIns
		}
		serverSelf = append(serverSelf, sd-q)
	}
	res.set("pqclient.items_per_s", plain.load.itemsPerSec())
	res.set("pqclient.call_us_p50", quantile(plain.load.latUS, 0.50))
	res.set("pqclient.call_us_p99", quantile(plain.load.latUS, 0.99))
	res.set("pqclient.self_us_p50", quantile(clientSelf, 0.50))
	res.set("pqclient.self_us_p99", quantile(clientSelf, 0.99))
	insertFrames := traced.delta("pq_queue_ops_total", ins) + traced.delta("pq_queue_ops_total", insB)
	res.set("pqclient.inserts_per_frame", ratio(float64(lr.insertCalls), insertFrames))
	res.set("pqclient.allocs_per_call", ratio(float64(plain.mallocs), float64(plain.load.calls)))
	res.set("pqclient.retries", traced.delta("pq_queue_shed_total", nil))

	res.set("server.self_us_p50", quantile(serverSelf, 0.50))
	res.set("server.self_us_p99", quantile(serverSelf, 0.99))
	res.set("server.frames_per_flush", traced.framesPerFlush())
	res.set("server.pipeline_depth_p50", histQuantile(histDelta(traced.m0, traced.m1, "pq_pipeline_depth", nil), 0.5))
	wireBytes := traced.delta("pq_bytes_read_total", nil) + traced.delta("pq_bytes_written_total", nil)
	res.set("server.wire_bytes_per_item", ratio(wireBytes, float64(lr.items)))

	qlat := func(q float64, ops ...map[string]string) float64 {
		return histQuantile(histDelta(traced.m0, traced.m1, "pq_queue_op_latency_seconds", ops...), q) * 1e6
	}
	res.set("queue.insert_us_p50", qlat(0.50, ins, insB))
	res.set("queue.insert_us_p99", qlat(0.99, ins, insB))
	res.set("queue.delete_us_p50", qlat(0.50, del, delB))
	res.set("queue.delete_us_p99", qlat(0.99, del, delB))
	res.set("queue.empty_delete_ratio", ratio(float64(traced.st1.EmptyDeletes-traced.st0.EmptyDeletes), float64(lr.deleteCalls)))

	res.set("trace.overhead_ratio", ratio(plain.load.itemsPerSec(), lr.itemsPerSec()))
	res.set("trace.frames_per_flush_ratio", ratio(traced.framesPerFlush(), plain.framesPerFlush()))
	res.set("trace.writes_per_flush", ratio(float64(traced.writes), traced.delta("pq_response_flushes_total", nil)))
}

func setDurableLayers(res *result, traced *phase) {
	d0, d1 := traced.st0.Durability, traced.st1.Durability
	if d0 == nil || d1 == nil {
		res.fail(1, "durable queue reports no durability section in STATS")
		res.markAbsent("STATS had no durability section", durableMetrics...)
		return
	}
	res.set("wal.appends_per_fsync", ratio(float64(d1.Appends-d0.Appends), float64(d1.Fsyncs-d0.Fsyncs)))
	if d1.GroupCommit != nil {
		res.set("wal.group_commit_p50", d1.GroupCommit.P50)
	}
	if d1.FsyncLatency != nil {
		res.set("wal.fsync_us_p99", d1.FsyncLatency.P99/1e3)
	}
	res.set("wal.snapshots", float64(d1.Snapshots-d0.Snapshots))
	res.set("wal.disk_bytes_per_user_byte", ratio(traced.disk, float64(traced.load.valueBytes)))
	res.markAbsent("the server recorded no WAL histogram", "wal.group_commit_p50", "wal.fsync_us_p99")
}
