package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"time"
)

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnapshot is one scrape of pqd's /metrics.
type promSnapshot []promSample

func parseProm(r io.Reader) (promSnapshot, error) {
	var out promSnapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		s := promSample{value: v, labels: map[string]string{}}
		series := line[:sp]
		if i := strings.IndexByte(series, '{'); i >= 0 {
			s.name = series[:i]
			for _, kv := range strings.Split(strings.TrimSuffix(series[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
		} else {
			s.name = series
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// scrapeURL fetches and parses a pqd child's /metrics.
func scrapeURL(addr string) (promSnapshot, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// scrapeHandler renders /metrics from an in-process server's admin
// handler, the same exposition a pqd child serves.
func scrapeHandler(h http.Handler) (promSnapshot, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", rec.Code)
	}
	return parseProm(rec.Body)
}

// sum adds every series of family name whose labels include want.
func (p promSnapshot) sum(name string, want map[string]string) float64 {
	var t float64
	for _, s := range p {
		if s.name == name && labelsMatch(s.labels, want) {
			t += s.value
		}
	}
	return t
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// bucketDelta is one histogram bucket's count added between scrapes.
type bucketDelta struct {
	le    float64
	count float64 // cumulative, as exposed
}

// histDelta returns the cumulative buckets of histogram family name
// (summed over every series matching one of wants) added between a
// and b, sorted by upper bound.
func histDelta(a, b promSnapshot, name string, wants ...map[string]string) []bucketDelta {
	acc := map[float64]float64{}
	add := func(p promSnapshot, sign float64) {
		for _, s := range p {
			if s.name != name+"_bucket" {
				continue
			}
			for _, want := range wants {
				if labelsMatch(s.labels, want) {
					le, err := strconv.ParseFloat(s.labels["le"], 64)
					if err != nil {
						le = math.Inf(1)
					}
					acc[le] += sign * s.value
					break
				}
			}
		}
	}
	add(b, 1)
	add(a, -1)
	out := make([]bucketDelta, 0, len(acc))
	for le, c := range acc {
		out = append(out, bucketDelta{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// histQuantile interpolates the q-quantile inside its bucket, the way
// Prometheus's histogram_quantile does; 0 when the histogram is empty.
func histQuantile(bs []bucketDelta, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].count <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank && b.count > prev {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/(b.count-prev)
		}
		lo, prev = b.le, b.count
	}
	return lo
}
