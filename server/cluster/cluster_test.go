package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bwtmatch"
	"bwtmatch/internal/obs"
	"bwtmatch/server"
	"bwtmatch/server/client"
)

func randomDNA(rng *rand.Rand, n int) []byte {
	const bases = "acgt"
	out := make([]byte, n)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return out
}

// fixture is a running mini-fleet: N workers each serving the same
// sharded index, fronted by one coordinator, all over real HTTP.
type fixture struct {
	genome  []byte
	sharded *bwtmatch.ShardedIndex
	workers []*server.Server
	co      *Coordinator
	base    string // coordinator URL
	cl      *client.Client
}

func newFixture(t *testing.T, nWorkers int, mod func(*Config)) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	genome := randomDNA(rng, 6000)
	sx, err := bwtmatch.NewSharded(genome,
		bwtmatch.WithShards(5), bwtmatch.WithMaxPatternLen(64))
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{genome: genome, sharded: sx}
	urls := make([]string, nWorkers)
	for i := 0; i < nWorkers; i++ {
		ws := server.New(server.Config{})
		if err := ws.RegisterIndex("g", sx); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(ws.Handler())
		t.Cleanup(hs.Close)
		f.workers = append(f.workers, ws)
		urls[i] = hs.URL
	}
	cfg := Config{Workers: urls, RetryBackoff: time.Millisecond}
	if mod != nil {
		mod(&cfg)
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.co = co
	hs := httptest.NewServer(co.Handler())
	t.Cleanup(hs.Close)
	f.base = hs.URL
	f.cl = client.New(hs.URL)
	return f
}

// boundaryReads builds a read set that exercises the merge: random
// reads, one read straddling every shard-ownership boundary, a
// duplicated hot read, and one overlong read that must error.
func (f *fixture) boundaryReads(t *testing.T, rng *rand.Rand) []server.Read {
	t.Helper()
	var reads []server.Read
	const patLen = 48
	mutate := func(p []byte) string {
		q := append([]byte(nil), p...)
		q[rng.Intn(len(q))] = "acgt"[rng.Intn(4)]
		return string(q)
	}
	for i := 0; i < 8; i++ {
		start := rng.Intn(len(f.genome) - patLen)
		reads = append(reads, server.Read{Seq: mutate(f.genome[start : start+patLen])})
	}
	for i, si := range f.sharded.ShardInfo() {
		if i == 0 {
			continue
		}
		// A pattern centered on the shard's start position straddles the
		// ownership boundary; the overlap guarantees the owner sees it.
		start := si.Start - patLen/2
		reads = append(reads, server.Read{Seq: mutate(f.genome[start : start+patLen])})
	}
	hot := string(f.genome[100 : 100+patLen])
	reads = append(reads, server.Read{Seq: hot}, server.Read{Seq: hot}, server.Read{Seq: hot})
	reads = append(reads, server.Read{Seq: string(randomDNA(rng, f.sharded.MaxPatternLen()+1))})
	return reads
}

// expected computes the single-process ground truth for reads.
func (f *fixture) expected(t *testing.T, reads []server.Read, k int) []server.ReadResult {
	t.Helper()
	queries := make([]bwtmatch.Query, len(reads))
	for i, rd := range reads {
		clean, _ := bwtmatch.Sanitize([]byte(rd.Seq))
		queries[i] = bwtmatch.Query{Pattern: clean, K: k}
	}
	results := f.sharded.MapAllContext(context.Background(), queries, bwtmatch.AlgorithmA, 2)
	out := make([]server.ReadResult, len(results))
	for i, res := range results {
		rr := server.ReadResult{Matches: []server.Match{}}
		if res.Err != nil {
			rr.Error = res.Err.Error()
		} else {
			for _, m := range res.Matches {
				rr.Matches = append(rr.Matches, server.Match{Pos: m.Pos, Mismatches: m.Mismatches})
			}
			if rr.Matches == nil {
				rr.Matches = []server.Match{}
			}
		}
		out[i] = rr
	}
	return out
}

func assertEqualResults(t *testing.T, got []server.ReadResult, want []server.ReadResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Error != w.Error {
			t.Errorf("read %d: error %q, want %q", i, g.Error, w.Error)
			continue
		}
		if len(g.Matches) == 0 && len(w.Matches) == 0 {
			continue
		}
		if !reflect.DeepEqual(g.Matches, w.Matches) {
			t.Errorf("read %d: matches %v, want %v", i, g.Matches, w.Matches)
		}
	}
}

// TestClusterEquivalence is the correctness property of the tier: a
// coordinator fanning out over workers — boundary-straddling reads,
// per-read errors, coalesced duplicates and all — returns exactly what
// a single process searching the same sharded index returns, in the
// same global position order.
func TestClusterEquivalence(t *testing.T) {
	for _, nWorkers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", nWorkers), func(t *testing.T) {
			f := newFixture(t, nWorkers, nil)
			rng := rand.New(rand.NewSource(int64(nWorkers)))
			reads := f.boundaryReads(t, rng)
			want := f.expected(t, reads, 2)

			resp, err := f.cl.Search(context.Background(),
				server.SearchRequest{Index: "g", K: 2, Reads: reads})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Partial || len(resp.FailedShards) != 0 {
				t.Fatalf("unexpected partial response: %+v", resp.FailedShards)
			}
			assertEqualResults(t, resp.Results, want)

			if rpcs := f.co.met.FanoutRPCs.Load(); rpcs < int64(min(nWorkers, 5)) {
				t.Errorf("fan-out used %d RPCs, want >= %d subsets", rpcs, min(nWorkers, 5))
			}
			// The triple hot read coalesces: two followers.
			if d := f.co.met.InflightDedup.Load(); d < 2 {
				t.Errorf("in-flight dedup %d, want >= 2", d)
			}
		})
	}
}

// TestClusterCacheHits pins the hot-results path: repeating a batch
// serves it entirely from the coordinator's cache — no new worker RPCs.
func TestClusterCacheHits(t *testing.T) {
	f := newFixture(t, 2, nil)
	rng := rand.New(rand.NewSource(9))
	reads := f.boundaryReads(t, rng)
	// Drop the erroring read: error results are deliberately not cached.
	reads = reads[:len(reads)-1]
	want := f.expected(t, reads, 2)

	first, err := f.cl.Search(context.Background(), server.SearchRequest{Index: "g", K: 2, Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	rpcsAfterFirst := f.co.met.FanoutRPCs.Load()

	second, err := f.cl.Search(context.Background(), server.SearchRequest{Index: "g", K: 2, Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualResults(t, first.Results, want)
	assertEqualResults(t, second.Results, want)

	if hits := f.co.met.CacheHits.Load(); hits < int64(len(reads)) {
		t.Errorf("cache hits %d, want >= %d (whole second batch)", hits, len(reads))
	}
	if rpcs := f.co.met.FanoutRPCs.Load(); rpcs != rpcsAfterFirst {
		t.Errorf("second batch cost %d extra RPCs, want 0", rpcs-rpcsAfterFirst)
	}
	if n, _ := f.co.cache.stats(); n == 0 {
		t.Error("cache empty after full batches")
	}
}

// TestClusterDrainRetry is the drain-during-fan-out property: a worker
// that drains mid-run makes its subsets fail over to the replica, and
// the merged results stay complete and identical — no duplicates, no
// missing boundary matches — while batches keep flowing.
func TestClusterDrainRetry(t *testing.T) {
	f := newFixture(t, 2, func(c *Config) {
		c.SubsetRetries = 2
		c.CacheEntries = -1 // force every batch through the fan-out
	})
	rng := rand.New(rand.NewSource(17))
	reads := f.boundaryReads(t, rng)
	want := f.expected(t, reads, 2)

	check := func(resp *server.SearchResponse, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Partial {
			t.Fatalf("partial response despite a live replica: failed shards %v", resp.FailedShards)
		}
		assertEqualResults(t, resp.Results, want)
	}

	// Healthy fleet first, then drain worker 0 while a stream of batches
	// is in flight; every batch must stay complete via the replica.
	check(f.cl.Search(context.Background(), server.SearchRequest{Index: "g", K: 2, Reads: reads}))

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := f.workers[0].Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 6; i++ {
		check(f.cl.Search(context.Background(), server.SearchRequest{Index: "g", K: 2, Reads: reads}))
	}
	<-drained
	// Fully drained now: the 503s must have driven the retry path.
	check(f.cl.Search(context.Background(), server.SearchRequest{Index: "g", K: 2, Reads: reads}))
	if f.co.met.RetriesTotal.Load() == 0 {
		t.Error("no subset retries recorded despite a drained worker")
	}
	if f.co.met.WorkerErrors.Load() == 0 {
		t.Error("no worker errors recorded despite a drained worker")
	}
}

// TestClusterPartial pins the degraded mode: when every replica of a
// subset is unreachable and retries are disabled, the batch comes back
// Partial with exactly the unowned shards listed, and nothing lands in
// the cache.
func TestClusterPartial(t *testing.T) {
	// A port with nothing listening: connection refused immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	f := newFixture(t, 1, func(c *Config) {
		c.Workers = append(c.Workers, deadURL)
		c.SubsetRetries = -1
		c.Routes = &RouteTable{Indexes: map[string]RouteEntry{
			"g": {Shards: 5, Workers: append([]string{}, c.Workers...)},
		}}
	})
	rng := rand.New(rand.NewSource(23))
	reads := f.boundaryReads(t, rng)
	reads = reads[:len(reads)-1] // keep only clean reads

	resp, err := f.cl.Search(context.Background(), server.SearchRequest{Index: "g", K: 2, Reads: reads})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatal("response not partial despite a dead sole replica")
	}
	// Worker 1 (dead) is primary for the odd shards.
	if want := []int{1, 3}; !reflect.DeepEqual(resp.FailedShards, want) {
		t.Errorf("failed shards %v, want %v", resp.FailedShards, want)
	}
	if f.co.met.PartialTotal.Load() != 1 {
		t.Errorf("partial_total %d, want 1", f.co.met.PartialTotal.Load())
	}
	if n, _ := f.co.cache.stats(); n != 0 {
		t.Errorf("%d partial results cached, want none", n)
	}

	// The surviving even shards still answer correctly: their matches
	// are a subset of the ground truth, in order.
	want := f.expected(t, reads, 2)
	for i, rr := range resp.Results {
		for _, m := range rr.Matches {
			found := false
			for _, wm := range want[i].Matches {
				if wm == m {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("read %d: spurious match %+v in partial response", i, m)
			}
		}
	}
}

// TestClusterShedding drives the admission gate: with one slot and one
// queue position against a stalled worker, concurrent batches beyond
// the cap are shed immediately with 503 + Retry-After.
func TestClusterShedding(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/search") {
			<-release // blocks until the test closes the gate
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"index":"g","method":"a","results":[{"matches":[]}],"reads":1}`)
	}))
	defer stalled.Close()

	co, err := New(Config{
		Workers:       []string{stalled.URL},
		MaxConcurrent: 1,
		QueueDepth:    1,
		CacheEntries:  -1,
		RetryAfter:    2 * time.Second,
		Routes: &RouteTable{Indexes: map[string]RouteEntry{
			"g": {Shards: 0, Workers: []string{stalled.URL}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(co.Handler())
	defer hs.Close()

	const n = 6
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"index":"g","k":0,"seq":"%s"}`,
				string(randomDNA(rand.New(rand.NewSource(int64(i))), 20)))
			resp, err := http.Post(hs.URL+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	// Wait for proof of shedding, then open the gate so the admitted
	// requests (at most MaxConcurrent+QueueDepth) can finish.
	deadline := time.Now().Add(10 * time.Second)
	for co.met.ShedTotal.Load() == 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	shed := 0
	for i, code := range codes {
		if code == http.StatusServiceUnavailable {
			shed++
			if retryAfter[i] != "2" {
				t.Errorf("shed response %d Retry-After %q, want \"2\"", i, retryAfter[i])
			}
		}
	}
	if shed == 0 {
		t.Fatal("no requests shed despite queue overflow")
	}
	if got := co.met.ShedTotal.Load(); got != int64(shed) {
		t.Errorf("shed_total %d, want %d", got, shed)
	}
}

// TestClusterMetricsEndpoints validates the exposition after real
// traffic: /metrics parses as Prometheus text format 0.0.4 with the
// km_cluster_*/km_cache_* series present, and /metrics.json decodes.
func TestClusterMetricsEndpoints(t *testing.T) {
	f := newFixture(t, 2, nil)
	rng := rand.New(rand.NewSource(31))
	reads := f.boundaryReads(t, rng)
	for i := 0; i < 2; i++ {
		if _, err := f.cl.Search(context.Background(),
			server.SearchRequest{Index: "g", K: 2, Reads: reads}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(f.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"km_cluster_batches_total 2",
		"km_cluster_fanout_rpcs_total",
		"km_cache_hits_total",
		"km_cache_entries",
		"km_cluster_batch_latency_ms_bucket",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}

	snap, err := f.cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap["cluster_batches_total"].(float64) != 2 {
		t.Errorf("cluster_batches_total = %v, want 2", snap["cluster_batches_total"])
	}
}

// TestClusterDiscoveryListing exercises /v1/indexes on the coordinator:
// a discovery round against the workers yields the index with its
// shard count and both owners.
func TestClusterDiscoveryListing(t *testing.T) {
	f := newFixture(t, 2, nil)
	resp, err := http.Get(f.base + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rt RouteTable
	if err := json.NewDecoder(resp.Body).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	e, ok := rt.Indexes["g"]
	if !ok || e.Shards != 5 || len(e.Workers) != 2 {
		t.Fatalf("discovered routing %+v", rt.Indexes)
	}
}

// TestClusterRejects pins the 4xx surface.
func TestClusterRejects(t *testing.T) {
	f := newFixture(t, 1, nil)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(f.base+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := map[string]struct {
		body string
		want int
	}{
		"client shards":  {`{"index":"g","k":1,"seq":"acgt","shards":[0]}`, http.StatusBadRequest},
		"no reads":       {`{"index":"g","k":1}`, http.StatusBadRequest},
		"bad method":     {`{"index":"g","k":1,"seq":"acgt","method":"nope"}`, http.StatusBadRequest},
		"no index":       {`{"k":1,"seq":"acgt"}`, http.StatusBadRequest},
		"unknown index":  {`{"index":"missing","k":1,"seq":"acgt"}`, http.StatusNotFound},
		"negative k":     {`{"index":"g","k":-1,"seq":"acgt"}`, http.StatusBadRequest},
		"trailing junk":  {`{"index":"g","k":1,"seq":"acgt"} {}`, http.StatusBadRequest},
		"seq plus reads": {`{"index":"g","k":1,"seq":"acgt","reads":[{"seq":"acgt"}]}`, http.StatusBadRequest},
	}
	for name, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", name, got, tc.want)
		}
	}
}

// TestBaselineMethodsRejected pins that the wire serves index methods
// only: the amir, cole and online tokens get 400 "unknown method" from a
// kmserved worker and from the coordinator alike, so no request can make
// an index build a text-scanning matcher.
func TestBaselineMethodsRejected(t *testing.T) {
	f := newFixture(t, 1, nil)
	worker := httptest.NewServer(f.workers[0].Handler())
	t.Cleanup(worker.Close)
	for _, tier := range []struct{ name, url string }{{"kmserved", worker.URL}, {"coordinator", f.base}} {
		for _, token := range []string{"amir", "cole", "online"} {
			body := fmt.Sprintf(`{"index":"g","k":1,"seq":"acgtacgtac","method":%q}`, token)
			resp, err := http.Post(tier.url+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e server.ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(e.Error, "unknown method") {
				t.Errorf("%s %q: status %d, error %q (%v); want 400 unknown method", tier.name, token, resp.StatusCode, e.Error, err)
			}
		}
	}
}

// TestCoordinatorDrain pins the coordinator's own lifecycle: after
// Shutdown both probes flip to 503 and new searches are refused.
func TestCoordinatorDrain(t *testing.T) {
	f := newFixture(t, 1, nil)
	if err := f.cl.Ready(context.Background()); err != nil {
		t.Fatalf("not ready while idle: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.co.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.cl.Health(ctx); client.StatusCode(err) != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: %v", err)
	}
	if err := f.cl.Ready(ctx); client.StatusCode(err) != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %v", err)
	}
	_, err := f.cl.Search(ctx, server.SearchRequest{Index: "g", K: 1, Seq: "acgtacgt"})
	if client.StatusCode(err) != http.StatusServiceUnavailable {
		t.Errorf("search after drain: %v", err)
	}
}
