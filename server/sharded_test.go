package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"bwtmatch"
	"bwtmatch/internal/obs"
)

func buildSharded(t *testing.T, seed int64, bases, shards, maxPat int) *bwtmatch.ShardedIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sx, err := bwtmatch.NewSharded(randomDNA(rng, bases),
		bwtmatch.WithShards(shards), bwtmatch.WithMaxPatternLen(maxPat))
	if err != nil {
		t.Fatal(err)
	}
	return sx
}

// TestRegistryShardedCost pins the double-count hazard: a sharded
// index's SizeBytes already includes its packed text, so the registry
// must not add Len again the way it does for monolithic indexes.
func TestRegistryShardedCost(t *testing.T) {
	sx := buildSharded(t, 11, 3000, 3, 32)
	if got := indexBytes(sx); got != int64(sx.SizeBytes()) {
		t.Errorf("sharded cost %d, want SizeBytes alone (%d)", got, sx.SizeBytes())
	}
	mono := buildIndex(t, 11, 3000)
	if got := indexBytes(mono); got != int64(mono.SizeBytes())+int64(mono.Len()) {
		t.Errorf("monolithic cost %d, want SizeBytes+Len", got)
	}
}

// TestRegistryEvictsShardedAsOneUnit registers a multi-shard index and
// forces it out via the LRU budget: the whole index leaves the registry
// in a single eviction (one onEvict call, full cost released), and the
// evicted value keeps answering searches for holders that grabbed it
// before eviction — including shards that had not materialized yet.
func TestRegistryEvictsShardedAsOneUnit(t *testing.T) {
	dir := t.TempDir()
	src := buildSharded(t, 12, 4000, 4, 48)
	path := filepath.Join(dir, "g.bwt")
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	mono := buildIndex(t, 13, 4000)
	// A lazily loaded sharded index reports serialized shard sizes until
	// shards materialize, so measure the registration-time cost on a
	// throwaway load rather than on the in-memory builder's copy.
	probe, err := bwtmatch.LoadShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lazyCost := indexBytes(probe)
	probe.Close()
	r := NewRegistry(lazyCost + indexBytes(mono) - 1) // room for one, not both
	var evicted []string
	r.onEvict = func(name string) { evicted = append(evicted, name) }

	sx, err := r.LoadFile("g", path)
	if err != nil {
		t.Fatal(err)
	}
	held := sx.(*bwtmatch.ShardedIndex)
	// Only the first shard materializes before eviction; the rest must
	// still be loadable from the backing file afterwards.
	if _, err := bwtmatch.Search(held, []byte("acgtacgt"), 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("mono", mono); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "g" {
		t.Fatalf("evicted %v, want exactly [g]", evicted)
	}
	if _, err := r.Get("g"); !errors.Is(err, ErrNotFound) {
		t.Errorf("sharded index still resident after eviction: %v", err)
	}
	// The whole multi-shard entry left in one step: only mono remains.
	if got := r.Resident(); got != indexBytes(mono) {
		t.Errorf("resident %d after eviction, want %d — full sharded cost not released",
			got, indexBytes(mono))
	}
	// The held reference must stay usable: eviction does not Close the
	// backing file, so unmaterialized shards still load.
	if err := held.LoadAll(); err != nil {
		t.Fatalf("evicted sharded index lost its backing file: %v", err)
	}
	if _, err := bwtmatch.Search(held, []byte("acgtacgt"), 1); err != nil {
		t.Fatalf("evicted sharded index stopped searching: %v", err)
	}
}

// TestRegistryLoadFileDispatch loads both container layouts through the
// same LoadFile path and checks the magic-based dispatch.
func TestRegistryLoadFileDispatch(t *testing.T) {
	dir := t.TempDir()
	monoPath := filepath.Join(dir, "mono.bwt")
	if err := buildIndex(t, 14, 1500).SaveFile(monoPath); err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(dir, "sharded.bwt")
	if err := buildSharded(t, 14, 1500, 3, 24).SaveFile(shardPath); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(0)
	m, err := r.LoadFile("mono", monoPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*bwtmatch.Index); !ok {
		t.Errorf("monolithic file loaded as %T", m)
	}
	sx, err := r.LoadFile("sharded", shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sx.(*bwtmatch.ShardedIndex); !ok {
		t.Errorf("sharded file loaded as %T", sx)
	}
	if _, err := r.LoadFile("bad", filepath.Join(dir, "missing.bwt")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestIndexesEndpointReportsShards checks GET /v1/indexes carries the
// shard count and per-shard byte sizes for sharded entries, and omits
// them for monolithic ones.
func TestIndexesEndpointReportsShards(t *testing.T) {
	s := New(Config{})
	sx := buildSharded(t, 15, 3000, 3, 32)
	if err := s.RegisterIndex("sharded", sx); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterIndex("mono", buildIndex(t, 15, 1000)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list IndexListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Indexes) != 2 {
		t.Fatalf("listed %d indexes, want 2", len(list.Indexes))
	}
	byName := map[string]IndexInfo{}
	for _, info := range list.Indexes {
		byName[info.Name] = info
	}
	m := byName["mono"]
	if m.Shards != 0 || m.ShardBytes != nil {
		t.Errorf("monolithic entry reports shard fields: %+v", m)
	}
	sh := byName["sharded"]
	if sh.Shards != sx.Shards() {
		t.Errorf("shards = %d, want %d", sh.Shards, sx.Shards())
	}
	if len(sh.ShardBytes) != sx.Shards() {
		t.Fatalf("shard_bytes has %d entries, want %d", len(sh.ShardBytes), sx.Shards())
	}
	for i, b := range sh.ShardBytes {
		if b <= 0 {
			t.Errorf("shard %d reports %d bytes", i, b)
		}
	}
	if list.ResidentBytes != indexBytes(sx)+indexBytes(byNameMatcher(t, s, "mono")) {
		t.Errorf("resident_bytes %d inconsistent with entry costs", list.ResidentBytes)
	}
}

func byNameMatcher(t *testing.T, s *Server, name string) bwtmatch.Matcher {
	t.Helper()
	m, err := s.Registry().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMetricsPerShardSeries scrapes /metrics after fanned-out searches
// and checks the per-shard counters appear, labelled by index and shard
// ordinal, in valid exposition format.
func TestMetricsPerShardSeries(t *testing.T) {
	s := New(Config{})
	sx := buildSharded(t, 16, 3000, 3, 32)
	if err := s.RegisterIndex("g", sx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const rounds = 4
	for i := 0; i < rounds; i++ {
		resp, body := postJSON(t, ts, "/v1/search", `{"index":"g","seq":"acgtacgtac","k":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search: %d %s", resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("/metrics not valid exposition with shard series: %v\n%s", err, text)
	}
	for i := 0; i < sx.Shards(); i++ {
		want := fmt.Sprintf(`km_shard_searches_total{index="g",shard="%d"} %d`, i, rounds)
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, text)
		}
		// Nanosecond totals are timing-dependent; presence is enough.
		if !strings.Contains(text, fmt.Sprintf(`km_shard_search_ns_total{index="g",shard="%d"} `, i)) {
			t.Errorf("missing ns series for shard %d", i)
		}
	}
}

// TestSearchShardedMatchesMonolithic drives the full HTTP path against
// a sharded registration and checks the results agree with a monolithic
// index over the same target.
func TestSearchShardedMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	target := randomDNA(rng, 6000)
	mono, err := bwtmatch.New(append([]byte(nil), target...))
	if err != nil {
		t.Fatal(err)
	}
	sx, err := bwtmatch.NewSharded(target,
		bwtmatch.WithShards(4), bwtmatch.WithMaxPatternLen(64))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.RegisterIndex("g", sx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var reads []string
	for i := 0; i < 16; i++ {
		start := rng.Intn(len(target) - 40)
		p := append([]byte(nil), target[start:start+40]...)
		p[rng.Intn(len(p))] = "acgt"[rng.Intn(4)]
		reads = append(reads, fmt.Sprintf(`{"id":"r%d","seq":"%s"}`, i, p))
	}
	body := fmt.Sprintf(`{"index":"g","k":2,"reads":[%s]}`, strings.Join(reads, ","))
	resp, raw := postJSON(t, ts, "/v1/search", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, raw)
	}
	var sr SearchResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Errors != 0 || len(sr.Results) != 16 {
		t.Fatalf("response: %d errors, %d results", sr.Errors, len(sr.Results))
	}
	for i, rr := range sr.Results {
		pattern := []byte(strings.Split(strings.Split(reads[i], `"seq":"`)[1], `"`)[0])
		want, err := bwtmatch.Search(mono, pattern, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(rr.Matches) != len(want) {
			t.Fatalf("read %d: %d matches via server, %d monolithic", i, len(rr.Matches), len(want))
		}
		for j := range want {
			if rr.Matches[j].Pos != want[j].Pos || rr.Matches[j].Mismatches != want[j].Mismatches {
				t.Errorf("read %d match %d: got %+v, want %+v", i, j, rr.Matches[j], want[j])
			}
		}
	}
}
