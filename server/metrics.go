package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"bwtmatch"
	"bwtmatch/internal/obs"
)

// Metrics aggregates server-wide counters. The request-path counters
// and latency histograms are striped across cache-line-padded cells
// (obs.ShardedCounter / obs.ShardedHistogram): concurrent batches on
// different CPUs update disjoint cache lines instead of bouncing one
// atomic word between cores, and the stripes are summed only at scrape
// time. /metrics renders a point-in-time Prometheus exposition and
// /metrics.json the same data as JSON. Unlike the stdlib expvar package
// the counters are per-Server, so tests can run many servers in one
// process without global registration collisions. Construct with
// NewMetrics: the per-method histograms need allocation.
type Metrics struct {
	QueriesTotal  obs.ShardedCounter // individual reads searched
	MatchesTotal  obs.ShardedCounter // matches emitted across all reads
	ErrorsTotal   obs.ShardedCounter // per-read errors (bad input, cancelled)
	BatchesTotal  obs.ShardedCounter // POST /v1/search requests served
	RejectedTotal obs.ShardedCounter // requests refused with 4xx/503
	InFlight      obs.ShardedCounter // searches currently executing

	// The paper's work counters, aggregated from bwtmatch.Stats.
	MTreeLeavesTotal obs.ShardedCounter // Σ n' (Table 2)
	StepCallsTotal   obs.ShardedCounter // Σ BWT rank operations
	MemoHitsTotal    obs.ShardedCounter // Σ M-tree derivations

	// Registry mutations are rare and lock-protected already; plain
	// atomics keep them word-sized.
	IndexesLoaded  atomic.Int64
	IndexesEvicted atomic.Int64

	perMethod [len(methodTokens)]*obs.ShardedHistogram // indexed by bwtmatch.Method
}

// NewMetrics builds Metrics with one latency histogram per method, each
// with the obs default bucket set (obs.DefaultBucketCount buckets).
func NewMetrics() *Metrics {
	m := &Metrics{}
	for i := range m.perMethod {
		m.perMethod[i] = obs.NewShardedLatencyHistogram()
	}
	return m
}

// ObserveBatch records one completed search batch.
func (m *Metrics) ObserveBatch(method int, d time.Duration, reads, matches, errs int, leaves, steps, memo int64) {
	m.BatchesTotal.Add(1)
	m.QueriesTotal.Add(int64(reads))
	m.MatchesTotal.Add(int64(matches))
	m.ErrorsTotal.Add(int64(errs))
	m.MTreeLeavesTotal.Add(leaves)
	m.StepCallsTotal.Add(steps)
	m.MemoHitsTotal.Add(memo)
	if method >= 0 && method < len(m.perMethod) {
		m.perMethod[method].Observe(d)
	}
}

// Snapshot renders all counters as a JSON-ready map (the /metrics.json
// document).
func (m *Metrics) Snapshot() map[string]any {
	methods := make(map[string]any)
	for i := range m.perMethod {
		if m.perMethod[i].Count() == 0 {
			continue
		}
		methods[MethodName(bwtmatch.Method(i))] = m.perMethod[i].Snapshot()
	}
	return map[string]any{
		"queries_total":       m.QueriesTotal.Load(),
		"matches_total":       m.MatchesTotal.Load(),
		"errors_total":        m.ErrorsTotal.Load(),
		"batches_total":       m.BatchesTotal.Load(),
		"rejected_total":      m.RejectedTotal.Load(),
		"in_flight":           m.InFlight.Load(),
		"mtree_leaves_total":  m.MTreeLeavesTotal.Load(),
		"step_calls_total":    m.StepCallsTotal.Load(),
		"memo_hits_total":     m.MemoHitsTotal.Load(),
		"indexes_loaded":      m.IndexesLoaded.Load(),
		"indexes_evicted":     m.IndexesEvicted.Load(),
		"method_latencies_ms": methods,
	}
}

// WritePrometheus emits every counter in Prometheus text exposition
// format 0.0.4. Metric names are documented in README.md ("Observing").
func (m *Metrics) WritePrometheus(w io.Writer) {
	obs.WriteCounter(w, "kmserved_queries_total", "individual reads searched", m.QueriesTotal.Load())
	obs.WriteCounter(w, "kmserved_matches_total", "matches emitted across all reads", m.MatchesTotal.Load())
	obs.WriteCounter(w, "kmserved_errors_total", "per-read errors (bad input, cancelled)", m.ErrorsTotal.Load())
	obs.WriteCounter(w, "kmserved_batches_total", "search batches served", m.BatchesTotal.Load())
	obs.WriteCounter(w, "kmserved_rejected_total", "requests refused with 4xx/503", m.RejectedTotal.Load())
	obs.WriteGauge(w, "kmserved_in_flight", "search batches currently executing", m.InFlight.Load())
	obs.WriteCounter(w, "kmserved_mtree_leaves_total", "total M-tree leaves (the paper's n')", m.MTreeLeavesTotal.Load())
	obs.WriteCounter(w, "kmserved_step_calls_total", "total BWT rank operations", m.StepCallsTotal.Load())
	obs.WriteCounter(w, "kmserved_memo_hits_total", "total M-tree derivations", m.MemoHitsTotal.Load())
	obs.WriteCounter(w, "kmserved_indexes_loaded_total", "indexes registered since start", m.IndexesLoaded.Load())
	obs.WriteCounter(w, "kmserved_indexes_evicted_total", "indexes evicted by the LRU budget", m.IndexesEvicted.Load())
	obs.WriteHistogramMeta(w, "kmserved_search_latency_ms", "per-batch search wall time by method")
	for i := range m.perMethod {
		if m.perMethod[i].Count() == 0 {
			continue
		}
		m.perMethod[i].WritePrometheus(w, "kmserved_search_latency_ms",
			fmt.Sprintf("method=%q", MethodName(bwtmatch.Method(i))))
	}
}

// LatencySource returns a merged obs.HistogramSource view over the
// per-method latency histograms, so the SLO layer computes attainment
// from the same striped data the kmserved_search_latency_ms series
// carry instead of double-counting observations elsewhere.
func (m *Metrics) LatencySource() obs.HistogramSource { return allMethodsSource{m} }

type allMethodsSource struct{ m *Metrics }

func (a allMethodsSource) Count() int64 {
	var n int64
	for i := range a.m.perMethod {
		n += a.m.perMethod[i].Count()
	}
	return n
}

func (a allMethodsSource) CountUnder(boundMS float64) int64 {
	var n int64
	for i := range a.m.perMethod {
		n += a.m.perMethod[i].CountUnder(boundMS)
	}
	return n
}

// ServeHTTP renders the Prometheus exposition, making Metrics mountable
// directly as the /metrics endpoint.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WritePrometheus(w)
}

// ServeJSON renders the JSON snapshot (the /metrics.json endpoint, and
// what /metrics served before the Prometheus migration).
func (m *Metrics) ServeJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m.Snapshot())
}
