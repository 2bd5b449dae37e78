package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"time"
	"unicode"

	"pq/internal/wire"
)

// Admin endpoint: a plain net/http handler the daemon mounts on a
// separate listener (-admin-addr), deliberately not speaking the frame
// protocol so standard ops tooling works against it unmodified:
//
//	/metrics       Prometheus text exposition of every serving metric
//	/healthz       liveness — 200 as soon as the process can answer
//	/readyz        readiness — 503 until serving and WAL-healthy
//	/statusz       human/JSON status: server info + per-queue stats
//	/debug/pprof/  the standard Go profiling handlers
//
// The split between healthz and readyz is the conventional one:
// liveness says "don't restart me", readiness says "send me traffic".
// During WAL replay the daemon answers /healthz but holds /readyz at
// 503; after a poisoned WAL it keeps answering /healthz (the process
// is fine, restarting loses nothing but doesn't help either) while
// /readyz reports the failed queue.

// Ready reports nil when the server should receive traffic: it is
// accepting connections, not shutting down, and no durable queue's WAL
// has been poisoned by a write/fsync failure.
func (s *Server) Ready() error {
	if s.shutdown.Load() {
		return errors.New("shutting down")
	}
	if s.Addr() == nil {
		return errors.New("not serving yet")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, q := range s.queues {
		if q.wal != nil && q.wal.Stats().Failed {
			return fmt.Errorf("queue %q: WAL poisoned, mutations refused", q.spec.Name)
		}
	}
	return nil
}

// AdminHandler returns the admin HTTP handler. It is safe to mount
// before the frame listener is up: /healthz already answers 200 and
// /readyz 503 while queues are still replaying their logs.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := s.Ready(); err != nil {
			http.Error(w, "not ready: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.writeProm(w); err != nil {
		// Headers are gone; all we can do is log.
		s.cfg.Logger.Warn("metrics scrape failed", "err", err)
	}
}

// statuszDoc is the /statusz JSON shape.
type statuszDoc struct {
	Addr         string `json:"addr,omitempty"`
	Uptime       string `json:"uptime"`
	GoVersion    string `json:"go_version"`
	NumGoroutine int    `json:"num_goroutine"`
	ConnsActive  int64  `json:"conns_active"`
	Ready        bool   `json:"ready"`
	ReadyErr     string `json:"ready_err,omitempty"`
	// Cluster is present when the server runs with a cluster map: the
	// full versioned map, this node's identity, and its misroute count.
	Cluster *wire.ClusterStats `json:"cluster,omitempty"`
	Queues  []quStat           `json:"queues"`
}

type quStat struct {
	wire.QueueStats
	SlowOps int64         `json:"slow_ops,omitempty"`
	Items   []itemPreview `json:"items,omitempty"`
}

// itemPreview is one peeked item: priority, size, and a printable
// prefix of the value (values are arbitrary bytes).
type itemPreview struct {
	Pri   uint32 `json:"pri"`
	Bytes int    `json:"bytes"`
	Value string `json:"value"`
}

func previewValue(v []byte) string {
	const max = 48
	trunc := len(v) > max
	if trunc {
		v = v[:max]
	}
	out := make([]rune, 0, len(v))
	for _, b := range v {
		r := rune(b)
		if b < 0x80 && (unicode.IsPrint(r)) {
			out = append(out, r)
		} else {
			out = append(out, '.')
		}
	}
	if trunc {
		out = append(out, '…')
	}
	return string(out)
}

// handleStatusz serves the JSON status snapshot. ?items=N additionally
// peeks the N most urgent items of every queue (non-destructively).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	items := 0
	if v := r.URL.Query().Get("items"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 1000 {
			http.Error(w, "bad items: want an integer in [0,1000]", http.StatusBadRequest)
			return
		}
		items = n
	}
	doc := statuszDoc{
		Uptime:       time.Since(s.met.started).Round(time.Millisecond).String(),
		GoVersion:    runtime.Version(),
		NumGoroutine: runtime.NumGoroutine(),
		ConnsActive:  s.met.connsActive.Load(),
	}
	if a := s.Addr(); a != nil {
		doc.Addr = a.String()
	}
	if err := s.Ready(); err != nil {
		doc.ReadyErr = err.Error()
	} else {
		doc.Ready = true
	}
	doc.Cluster = s.clusterStats()
	s.mu.RLock()
	queues := make([]*servedQueue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.RUnlock()
	sort.Slice(queues, func(i, j int) bool { return queues[i].spec.Name < queues[j].spec.Name })
	for _, q := range queues {
		qs := quStat{QueueStats: q.stats(), SlowOps: q.met.slowOps.Load()}
		for _, it := range q.peek(items) {
			qs.Items = append(qs.Items, itemPreview{
				Pri: it.Pri, Bytes: len(it.Value), Value: previewValue(it.Value)})
		}
		doc.Queues = append(doc.Queues, qs)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
