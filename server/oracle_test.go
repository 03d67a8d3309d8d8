package server_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/naive"
	"bwtmatch/server"
	"bwtmatch/server/client"
)

// TestServerOracleTable is the oracle table over a single kmserved. One
// in-process server holds four layouts: a monolithic index, a
// three-shard index, an in-process relative tenant, and a tenant
// registered by path whose base resolves base-only from the container's
// path hint. For every wire token and every k from 0 to 3, each read's
// matches through server/client must equal naive.Find, with
// naive.Hamming counts, over that index's target. The reads include one
// straddling every shard boundary and one from a planted near-repeat.
func TestServerOracleTable(t *testing.T) {
	const n, patLen = 4000, 40
	rng := rand.New(rand.NewSource(2702))
	dir := t.TempDir()
	substitute := func(g []byte, edits int) []byte {
		out := slices.Clone(g)
		for range edits {
			i := rng.Intn(len(out))
			out[i] = "acgt"[(strings.IndexByte("acgt", out[i])+1+rng.Intn(3))%4]
		}
		return out
	}
	// genome is random DNA with a near-repeat planted, so that some
	// reads match at more than one position.
	genome := func() []byte {
		g := make([]byte, n)
		for i := range g {
			g[i] = "acgt"[rng.Intn(4)]
		}
		copy(g[3000:3100], substitute(g[600:700], 1))
		return g
	}

	monoText := genome()
	mono, err := bwtmatch.New(monoText)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := bwtmatch.NewSharded(monoText, bwtmatch.WithShards(3), bwtmatch.WithMaxPatternLen(64))
	if err != nil {
		t.Fatal(err)
	}
	tenantText := substitute(monoText, n/100)
	tenant, err := bwtmatch.NewRelative(mono, tenantText)
	if err != nil {
		t.Fatal(err)
	}
	// The hinted tenant has a base of its own: a base already resident
	// for another tenant would be shared instead of resolved from the
	// hint.
	hintBaseText := genome()
	hintBase, err := bwtmatch.New(hintBaseText)
	if err != nil {
		t.Fatal(err)
	}
	if err := hintBase.SaveFile(filepath.Join(dir, "base.km")); err != nil {
		t.Fatal(err)
	}
	hintedText := substitute(hintBaseText, n/100)
	hinted, err := bwtmatch.NewRelative(hintBase, hintedText)
	if err != nil {
		t.Fatal(err)
	}
	hinted.SetBasePath("base.km")
	if err := hinted.SaveFile(filepath.Join(dir, "hinted.km")); err != nil {
		t.Fatal(err)
	}

	s := server.New(server.Config{})
	for name, idx := range map[string]bwtmatch.Matcher{"mono": mono, "sharded": sharded, "tenant": tenant} {
		if err := s.RegisterIndex(name, idx); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Register("hinted", filepath.Join(dir, "hinted.km")); err != nil {
		t.Fatal(err)
	}
	loaded, err := s.Registry().Get("hinted")
	if err != nil {
		t.Fatal(err)
	}
	base := loaded.(*bwtmatch.RelativeIndex).Base()
	if _, _, err := base.SearchMethodTraced(hintedText[:patLen], 0, bwtmatch.AlgorithmA, nil); !errors.Is(err, bwtmatch.ErrBaseOnly) {
		t.Fatalf("hinted base answers a search (%v): it did not resolve base-only", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	// Read starts shared by every layout (all four targets have length
	// n): random windows, the planted repeat, and a window centered on
	// every shard boundary.
	starts := []int{600, 3000}
	for range 6 {
		starts = append(starts, rng.Intn(n-patLen))
	}
	for _, si := range sharded.ShardInfo()[1:] {
		starts = append(starts, si.Start-patLen/2)
	}
	for _, tc := range []struct {
		name string
		text []byte
	}{
		{"mono", monoText}, {"sharded", monoText}, {"tenant", tenantText}, {"hinted", hintedText},
	} {
		ranks, err := alphabet.Encode(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		reads := make([]server.Read, len(starts))
		for i, p := range starts {
			reads[i] = server.Read{Seq: string(substitute(tc.text[p:p+patLen], rng.Intn(3)))}
		}
		for _, token := range strings.Split(server.MethodTokens(), "|") {
			for k := 0; k <= 3; k++ {
				resp, err := cl.Search(context.Background(), server.SearchRequest{Index: tc.name, K: k, Method: token, Reads: reads})
				if err != nil {
					t.Fatalf("%s %s k=%d: %v", tc.name, token, k, err)
				}
				if len(resp.Results) != len(reads) {
					t.Fatalf("%s %s k=%d: %d results for %d reads", tc.name, token, k, len(resp.Results), len(reads))
				}
				for i, r := range resp.Results {
					pattern, _ := alphabet.Encode([]byte(reads[i].Seq))
					var want []server.Match
					for _, q := range naive.Find(ranks, pattern, k) {
						want = append(want, server.Match{Pos: int(q), Mismatches: naive.Hamming(ranks[q:int(q)+patLen], pattern, patLen)})
					}
					if r.Error != "" || !slices.Equal(r.Matches, want) {
						t.Errorf("%s %s k=%d read at %d: %v %q, want %v", tc.name, token, k, starts[i], r.Matches, r.Error, want)
					}
				}
			}
		}
	}
}
