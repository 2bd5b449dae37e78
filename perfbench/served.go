package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"pq/pqclient"
)

// runDir makes the run's scratch directory under .bench_build.
func runDir(o *options) (string, error) {
	dir := filepath.Join(o.buildDir(), "runs", fmt.Sprintf("%s-seed%d-pid%d", o.workload.name, o.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func pqdPath(o *options) string { return filepath.Join(o.buildDir(), "bin", "pqd") }

// crashLog is a WAL left by a pqd killed with SIGKILL after acking
// every prefill insert.
type crashLog struct {
	dir   string
	acked []uint64
}

// makeCrashLog boots a durable pqd, prefills it, and kills it.
func makeCrashLog(o *options, dir string) (*crashLog, error) {
	w := o.workload
	d, err := startDaemon(pqdPath(o), daemonArgs(w, dir), gomaxprocs)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	cl, err := pqclient.Dial(pqclient.Config{Addr: d.addr, Conns: w.conns})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	acked, err := prefill(cl, w, o.seed)
	if err != nil {
		return nil, err
	}
	d.kill() // SIGKILL: no snapshot, no seal; boot replays the log
	return &crashLog{dir: dir, acked: acked}, nil
}

// bootedDaemon is a pqd child whose queue holds the prefill.
type bootedDaemon struct {
	d     *daemon
	cl    *pqclient.Client
	acked []uint64
	setup time.Duration
}

// bootServed starts a fresh pqd for the workload and brings its queue
// to the prefilled state: by prefilling, or for a durable workload by
// replaying a copy of the crash log. The set-up time is the CPU that pqd
// and this process spend from exec to the queue answering STATS, less
// the share the hypervisor stole meanwhile (unstolen).
func bootServed(o *options, crash *crashLog, dataDir string, res *result) (*bootedDaemon, error) {
	w := o.workload
	if crash != nil {
		if err := copyTree(crash.dir, dataDir); err != nil {
			return nil, err
		}
	}
	self0, host0 := selfCPU(), readCPUTimes()
	d, err := startDaemon(pqdPath(o), daemonArgs(w, dataDir), gomaxprocs)
	if err != nil {
		return nil, err
	}
	b := &bootedDaemon{d: d}
	b.cl, err = pqclient.Dial(pqclient.Config{Addr: d.addr, Conns: w.conns})
	if err != nil {
		d.kill()
		return nil, err
	}
	if crash == nil {
		if b.acked, err = prefill(b.cl, w, o.seed); err != nil {
			b.close()
			return nil, err
		}
	} else {
		b.acked = crash.acked
	}
	st, err := b.cl.Stats(context.Background(), queueName)
	if err != nil {
		b.close()
		return nil, err
	}
	srv, err := procCPU(d.pid())
	if err != nil {
		b.close()
		return nil, err
	}
	b.setup = unstolen(srv+selfCPU()-self0, stealPct(host0, readCPUTimes()))
	if st.Size != int64(len(b.acked)) {
		res.fail(absDiff(st.Size, int64(len(b.acked))), "after set-up the queue holds %d items, want the %d acknowledged", st.Size, len(b.acked))
	}
	if crash != nil && (st.Durability == nil || st.Durability.RecoveredItems != len(crash.acked)) {
		got := -1
		if st.Durability != nil {
			got = st.Durability.RecoveredItems
		}
		res.fail(absDiff(int64(got), int64(len(crash.acked))), "recovered %d items from the crash log, want the %d acked before SIGKILL", got, len(crash.acked))
	}
	return b, nil
}

func (b *bootedDaemon) close() {
	b.cl.Close()
	b.d.kill()
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// servedTrials is how many fresh daemons a served run sets up and
// times in turn; each serves an equal share of the timed phase. Host
// noise on a small VM differs from one daemon's lifetime to the next,
// and the median over the trials' windows smooths it.
const servedTrials = 8

// runServed is the untraced run of a served workload: the end-to-end
// metrics.
func runServed(o *options) (*result, error) {
	w := o.workload
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
	var windows []window
	setups := make([]float64, 0, servedTrials)
	rss := make([]float64, 0, servedTrials)
	for i := 0; i < servedTrials; i++ {
		dataDir := ""
		if w.durable {
			dataDir = filepath.Join(dir, "data-"+strconv.Itoa(i))
		}
		b, err := bootServed(o, crash, dataDir, res)
		if err != nil {
			return nil, err
		}
		setups = append(setups, b.setup.Seconds())
		lr, peak, err := timedTrial(o, b, o.seconds/servedTrials, res)
		b.close()
		if err != nil {
			return nil, err
		}
		windows = append(windows, lr.windows...)
		rss = append(rss, peak)
	}
	res.set("cpu_us_per_item", medianCPUPerItemUS(windows))
	res.set("server_cpu_us_per_item", medianServerCPUPerItemUS(windows))
	res.set("peak_rss_mb", median(rss))
	res.set("setup_s", median(setups))
	return res, nil
}

// timedTrial runs one timed phase of d against a booted daemon, then
// its exactly-once check, and returns the load and pqd's peak RSS.
func timedTrial(o *options, b *bootedDaemon, d time.Duration, res *result) (*loadResult, float64, error) {
	m0, err := scrapeURL(b.d.admin)
	if err != nil {
		return nil, 0, err
	}
	pid := b.d.pid()
	var cpuErr error
	cpu := func() (time.Duration, time.Duration) {
		srv, err := procCPU(pid)
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		return srv, selfCPU()
	}
	lr := runLoad(b.cl, o.workload, o.seed, d, nil, cpu)
	if cpuErr != nil {
		return nil, 0, cpuErr
	}
	m1, err := scrapeURL(b.d.admin)
	if err != nil {
		return nil, 0, err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return nil, 0, err
	}
	if err := checkServed(b.cl, o.workload, b.acked, &lr, res); err != nil {
		return nil, 0, err
	}
	if shed := m1.sum("pq_queue_shed_total", nil) - m0.sum("pq_queue_shed_total", nil); shed != 0 {
		res.fail(int64(shed), "admission control shed %v items; the workload is sized never to shed", shed)
	}
	return &lr, rss, nil
}

// checkServed runs the exactly-once check after a timed phase: count
// failed calls, drain the queue, match every acked id against the
// deliveries, and reconcile the server's insert/delete counters.
func checkServed(cl *pqclient.Client, w *workload, prefilled []uint64, lr *loadResult, res *result) error {
	res.attempted += lr.calls
	if lr.failedCalls > 0 {
		res.fail(lr.failedCalls, "%d of %d calls failed, first: %v", lr.failedCalls, lr.calls, lr.firstErr)
	}
	drained, corrupt, err := drainAll(cl, w)
	if err != nil {
		return err
	}
	acked := append(append([]uint64(nil), prefilled...), lr.acked...)
	delivered := append(append([]uint64(nil), lr.delivered...), drained...)
	if d := checkDelivery(acked, delivered, lr.corrupt+corrupt); d.failures() > 0 {
		res.fail(int64(d.failures()), "exactly-once violated: %v", d)
	}
	st, err := cl.Stats(context.Background(), queueName)
	if err != nil {
		return err
	}
	if st.Inserts != int64(len(acked)) || st.Deletes != int64(len(delivered)) || st.Size != 0 {
		res.fail(1, "unclean drain: server counts inserts=%d deletes=%d size=%d, client saw %d acked and %d delivered",
			st.Inserts, st.Deletes, st.Size, len(acked), len(delivered))
	}
	return nil
}
