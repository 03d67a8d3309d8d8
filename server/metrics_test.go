package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bwtmatch"
	"bwtmatch/internal/obs"
)

func TestMetricsSnapshotOmitsIdleMethods(t *testing.T) {
	m := NewMetrics()
	m.ObserveBatch(0, time.Millisecond, 10, 3, 1, 100, 200, 5)
	snap := m.Snapshot()
	lat := snap["method_latencies_ms"].(map[string]any)
	if len(lat) != 1 || lat["a"] == nil {
		t.Fatalf("latencies: %v", lat)
	}
	if snap["queries_total"].(int64) != 10 || snap["matches_total"].(int64) != 3 ||
		snap["errors_total"].(int64) != 1 {
		t.Errorf("counters: %v", snap)
	}
	if snap["mtree_leaves_total"].(int64) != 100 || snap["step_calls_total"].(int64) != 200 ||
		snap["memo_hits_total"].(int64) != 5 {
		t.Errorf("paper counters: %v", snap)
	}
	hist := lat["a"].(map[string]any)
	if hist["count"].(int64) != 1 {
		t.Errorf("histogram count: %v", hist)
	}
	// The per-method histograms carry the obs default bucket set, whose
	// size the compiler derives from the bounds array (no len11 hack).
	buckets := hist["buckets_ms"].(map[string]int64)
	if len(buckets) != obs.DefaultBucketCount {
		t.Errorf("bucket count = %d, want %d", len(buckets), obs.DefaultBucketCount)
	}
}

func TestMetricsWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.ObserveBatch(0, 2*time.Millisecond, 7, 2, 0, 50, 80, 3)
	m.ObserveBatch(1, 40*time.Millisecond, 1, 0, 1, 9, 12, 0)
	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE kmserved_queries_total counter",
		"kmserved_queries_total 8",
		"kmserved_mtree_leaves_total 59",
		"kmserved_in_flight 0",
		"# TYPE kmserved_search_latency_ms histogram",
		`kmserved_search_latency_ms_bucket{method="a",le="+Inf"} 1`,
		`kmserved_search_latency_ms_count{method="bwt"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, out)
	}
}

func TestMetricsPrometheusValidWhenIdle(t *testing.T) {
	// A freshly started server must still serve a valid exposition (the
	// histogram series are absent, but every counter is present).
	var sb strings.Builder
	NewMetrics().WritePrometheus(&sb)
	if err := obs.ValidateExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("invalid idle exposition: %v\n%s", err, sb.String())
	}
}

// TestMethodNameRoundTrip pins the one wire-method table behind the
// search API, the -method help of kmsearch and kmload, and the /metrics
// labels: every token, plus "" for Algorithm A, parses to its matcher,
// MethodName maps the matcher back to its canonical token, and a batch
// sent with the token lands in that token's /metrics series.
func TestMethodNameRoundTrip(t *testing.T) {
	cases := []struct {
		token, canonical string
		method           bwtmatch.Method
	}{
		{"", "a", bwtmatch.AlgorithmA},
		{"a", "a", bwtmatch.AlgorithmA},
		{"bwt", "bwt", bwtmatch.BWTBaseline},
		{"stree", "stree", bwtmatch.STree},
		{"seed", "seed", bwtmatch.Seed},
	}
	if got, want := MethodTokens(), "a|bwt|stree|seed"; got != want {
		t.Fatalf("MethodTokens() = %q, want %q", got, want)
	}
	s, target := newTestServer(t, Config{}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sent := map[string]int{}
	for _, tc := range cases {
		m, err := ParseMethod(tc.token)
		if err != nil || m != tc.method {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", tc.token, m, err, tc.method)
			continue
		}
		if got := MethodName(m); got != tc.canonical {
			t.Errorf("MethodName(%v) = %q, want %q", m, got, tc.canonical)
		}
		body := fmt.Sprintf(`{"index":"g","k":1,"seq":%q,"method":%q}`, target[100:140], tc.token)
		if resp, b := postJSON(t, ts, "/v1/search", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("method %q: status %d: %s", tc.token, resp.StatusCode, b)
		}
		sent[tc.canonical]++
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		exposition, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		series := fmt.Sprintf("kmserved_search_latency_ms_count{method=%q} %d", tc.canonical, sent[tc.canonical])
		if !strings.Contains(string(exposition), series) {
			t.Errorf("method %q: /metrics lacks %s:\n%s", tc.token, series, exposition)
		}
	}
	for _, token := range []string{"quantum", "amir", "cole", "online"} {
		if _, err := ParseMethod(token); err == nil {
			t.Errorf("method %q accepted", token)
		}
	}
}

// TestObserveBatchConcurrent drives ObserveBatch from many goroutines
// and checks no count is lost across the sharded counters and
// histograms (run under -race in make check).
func TestObserveBatchConcurrent(t *testing.T) {
	m := NewMetrics()
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.ObserveBatch(0, time.Millisecond, 3, 2, 1, 10, 20, 5)
			}
		}()
	}
	wg.Wait()
	n := int64(goroutines * perG)
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"batches", m.BatchesTotal.Load(), n},
		{"queries", m.QueriesTotal.Load(), 3 * n},
		{"matches", m.MatchesTotal.Load(), 2 * n},
		{"errors", m.ErrorsTotal.Load(), n},
		{"leaves", m.MTreeLeavesTotal.Load(), 10 * n},
		{"steps", m.StepCallsTotal.Load(), 20 * n},
		{"memo", m.MemoHitsTotal.Load(), 5 * n},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if got := m.perMethod[0].Count(); got != n {
		t.Errorf("histogram count = %d, want %d", got, n)
	}
}

// BenchmarkObserveBatchParallel measures the full per-batch metrics
// update under contention — the path the striped cells exist for.
func BenchmarkObserveBatchParallel(b *testing.B) {
	m := NewMetrics()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.ObserveBatch(0, time.Millisecond, 64, 10, 0, 1000, 5000, 200)
		}
	})
}
