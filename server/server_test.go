package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bwtmatch"
	"bwtmatch/internal/obs"
)

func randomDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "acgt"[rng.Intn(4)]
	}
	return s
}

// newTestServer builds a server with one in-process index named "g"
// over a deterministic random target, returning both.
func newTestServer(t *testing.T, cfg Config, bases int) (*Server, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	target := randomDNA(rng, bases)
	idx, err := bwtmatch.New(target)
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	if err := s.RegisterIndex("g", idx); err != nil {
		t.Fatal(err)
	}
	return s, target
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestSearchValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 4, MaxK: 8}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", `{not json`, http.StatusBadRequest},
		{"unknown field", `{"index":"g","seq":"acgt","bogus":1}`, http.StatusBadRequest},
		{"trailing garbage", `{"index":"g","seq":"acgt"} extra`, http.StatusBadRequest},
		{"no reads", `{"index":"g","k":2}`, http.StatusBadRequest},
		{"seq and reads", `{"index":"g","seq":"acgt","reads":[{"seq":"acgt"}]}`, http.StatusBadRequest},
		{"unknown method", `{"index":"g","seq":"acgt","method":"quantum"}`, http.StatusBadRequest},
		{"unknown index", `{"index":"nope","seq":"acgt"}`, http.StatusNotFound},
		{"k too large", `{"index":"g","seq":"acgt","k":9}`, http.StatusBadRequest},
		{"k negative", `{"index":"g","seq":"acgt","k":-1}`, http.StatusBadRequest},
		{"per-read k out of range", `{"index":"g","reads":[{"seq":"acgt","k":99}]}`, http.StatusBadRequest},
		{"oversized batch", `{"index":"g","reads":[{"seq":"a"},{"seq":"a"},{"seq":"a"},{"seq":"a"},{"seq":"a"}]}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts, "/v1/search", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, resp.StatusCode, c.want, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no structured error in %s", c.name, body)
		}
	}
	if got := s.Metrics().RejectedTotal.Load(); got != int64(len(cases)) {
		t.Errorf("rejected_total = %d, want %d", got, len(cases))
	}
}

func TestSearchMatchesLibrary(t *testing.T) {
	s, target := newTestServer(t, Config{}, 5000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	idx, _ := bwtmatch.New(target)
	rng := rand.New(rand.NewSource(42))
	var reads []Read
	type expect struct {
		matches []bwtmatch.Match
	}
	var want []expect
	for i := 0; i < 50; i++ {
		m := 12 + rng.Intn(30)
		p := rng.Intn(len(target) - m)
		pat := append([]byte(nil), target[p:p+m]...)
		pat[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		k := rng.Intn(4)
		reads = append(reads, Read{ID: fmt.Sprintf("r%d", i), Seq: string(pat), K: &k})
		direct, err := bwtmatch.Search(idx, pat, k)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, expect{matches: direct})
	}
	reqBody, _ := json.Marshal(SearchRequest{Index: "g", Reads: reads})
	resp, body := postJSON(t, ts, "/v1/search", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Reads != len(reads) || len(sr.Results) != len(reads) || sr.Errors != 0 {
		t.Fatalf("reads=%d results=%d errors=%d", sr.Reads, len(sr.Results), sr.Errors)
	}
	total := 0
	for i, rr := range sr.Results {
		if rr.ID != reads[i].ID {
			t.Fatalf("result %d: ID %q, want %q", i, rr.ID, reads[i].ID)
		}
		if len(rr.Matches) != len(want[i].matches) {
			t.Fatalf("read %d: %d matches, want %d", i, len(rr.Matches), len(want[i].matches))
		}
		for j, m := range rr.Matches {
			w := want[i].matches[j]
			if m.Pos != w.Pos || m.Mismatches != w.Mismatches {
				t.Fatalf("read %d match %d: %+v, want %+v", i, j, m, w)
			}
		}
		total += len(rr.Matches)
	}
	if sr.Matches != total {
		t.Errorf("response matches=%d, sum=%d", sr.Matches, total)
	}

	met := s.Metrics()
	if met.QueriesTotal.Load() != int64(len(reads)) {
		t.Errorf("queries_total = %d, want %d", met.QueriesTotal.Load(), len(reads))
	}
	if met.MatchesTotal.Load() != int64(total) {
		t.Errorf("matches_total = %d, want %d", met.MatchesTotal.Load(), total)
	}
	if met.BatchesTotal.Load() != 1 {
		t.Errorf("batches_total = %d, want 1", met.BatchesTotal.Load())
	}
	if met.StepCallsTotal.Load() == 0 {
		t.Error("step_calls_total not surfaced from Stats")
	}
}

func TestSearchSingleReadShorthand(t *testing.T) {
	s, target := newTestServer(t, Config{}, 3000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pat := string(target[100:140])
	resp, body := postJSON(t, ts, "/v1/search",
		fmt.Sprintf(`{"index":"g","k":0,"seq":%q}`, pat))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	json.Unmarshal(body, &sr)
	if len(sr.Results) != 1 || len(sr.Results[0].Matches) == 0 {
		t.Fatalf("planted pattern not found: %s", body)
	}
	if sr.Results[0].Matches[0].Pos != 100 && sr.Matches < 1 {
		t.Fatalf("unexpected matches: %s", body)
	}
}

func TestSearchPerReadErrorsDoNotAbortBatch(t *testing.T) {
	s, target := newTestServer(t, Config{}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"index":"g","k":1,"reads":[{"id":"ok","seq":%q},{"id":"empty","seq":""}]}`,
		string(target[10:40]))
	resp, raw := postJSON(t, ts, "/v1/search", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var sr SearchResponse
	json.Unmarshal(raw, &sr)
	if sr.Errors != 1 || sr.Results[1].Error == "" {
		t.Fatalf("empty read not reported per-read: %s", raw)
	}
	if len(sr.Results[0].Matches) == 0 || sr.Results[0].Error != "" {
		t.Fatalf("good read suffered from bad neighbor: %s", raw)
	}
}

func TestIndexLifecycleEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dir := t.TempDir()
	idx, _ := bwtmatch.New(randomDNA(rng, 1500))
	path := filepath.Join(dir, "g.bwt")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "bad.bwt")
	os.WriteFile(garbage, []byte("not an index at all"), 0o644)

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reg := func(name, p string) (*http.Response, []byte) {
		return postJSON(t, ts, "/v1/indexes", fmt.Sprintf(`{"name":%q,"path":%q}`, name, p))
	}
	if resp, body := reg("g", path); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	if resp, _ := reg("g", path); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate register: %d, want 409", resp.StatusCode)
	}
	if resp, _ := reg("bad", garbage); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("garbage register: %d, want 422", resp.StatusCode)
	}
	if resp, _ := reg("gone", filepath.Join(dir, "missing.bwt")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing-file register: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/indexes", `{"name":"","path":""}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty register: %d, want 400", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	var list IndexListResponse
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Indexes) != 1 || list.Indexes[0].Name != "g" || list.Indexes[0].Bases != 1500 {
		t.Fatalf("index list: %+v", list)
	}
	if list.ResidentBytes <= 0 {
		t.Errorf("resident bytes not reported: %+v", list)
	}

	del := func(name string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/indexes/"+name, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("g"); code != http.StatusOK {
		t.Errorf("delete: %d", code)
	}
	if code := del("g"); code != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", code)
	}
	if got := s.Metrics().IndexesLoaded.Load(); got != 1 {
		t.Errorf("indexes_loaded = %d, want 1", got)
	}
	if got := s.Metrics().IndexesEvicted.Load(); got != 1 {
		t.Errorf("indexes_evicted = %d, want 1", got)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	s, target := newTestServer(t, Config{}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	postJSON(t, ts, "/v1/search", fmt.Sprintf(`{"index":"g","k":1,"seq":%q}`, string(target[5:35])))

	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if m["queries_total"].(float64) != 1 {
		t.Errorf("metrics queries_total = %v", m["queries_total"])
	}
	lat, ok := m["method_latencies_ms"].(map[string]any)
	if !ok || lat["a"] == nil {
		t.Errorf("metrics missing method latency histogram: %v", m["method_latencies_ms"])
	}

	// /metrics now serves the Prometheus text exposition.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "kmserved_queries_total 1") {
		t.Errorf("prometheus exposition missing query counter:\n%s", body)
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Errorf("invalid exposition: %v", err)
	}
}

func TestGracefulShutdownDrain(t *testing.T) {
	s, target := newTestServer(t, Config{}, 4000)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookSearchStart = func() {
		once.Do(func() { close(started) })
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Request A blocks inside the search while counted as in-flight.
	type result struct {
		code int
		err  error
	}
	resA := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json",
			strings.NewReader(fmt.Sprintf(`{"index":"g","k":2,"seq":%q}`, string(target[50:90]))))
		if err != nil {
			resA <- result{err: err}
			return
		}
		resp.Body.Close()
		resA <- result{code: resp.StatusCode}
	}()
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Shutdown must not complete while A is still in flight.
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v with a search in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// New searches are refused while draining; healthz reports it.
	resp, body := postJSON(t, ts, "/v1/search",
		fmt.Sprintf(`{"index":"g","k":0,"seq":%q}`, string(target[0:30])))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("search while draining: %d %s, want 503", resp.StatusCode, body)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", hr.StatusCode)
	}

	// Releasing A lets the drain finish, and A still gets its answer.
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	a := <-resA
	if a.err != nil || a.code != http.StatusOK {
		t.Fatalf("in-flight request after drain: %+v", a)
	}
}

func TestShutdownTimeout(t *testing.T) {
	s, target := newTestServer(t, Config{}, 2000)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookSearchStart = func() {
		once.Do(func() { close(started) })
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	go http.Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(fmt.Sprintf(`{"index":"g","k":0,"seq":%q}`, string(target[0:20]))))
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil despite a stuck search")
	}
}

func TestRequestTimeoutCancelsBatch(t *testing.T) {
	s, target := newTestServer(t, Config{DefaultTimeout: time.Nanosecond}, 3000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var reads []Read
	for i := 0; i < 64; i++ {
		reads = append(reads, Read{ID: fmt.Sprintf("r%d", i), Seq: string(target[i : i+40])})
	}
	raw, _ := json.Marshal(SearchRequest{Index: "g", K: 2, Reads: reads})
	resp, body := postJSON(t, ts, "/v1/search", string(raw))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	json.Unmarshal(body, &sr)
	// With a 1ns deadline nearly every read must report cancellation (the
	// warm-up read may slip through before the first deadline check).
	if sr.Errors < len(reads)-2 {
		t.Errorf("only %d of %d reads cancelled by deadline", sr.Errors, len(reads))
	}
}
