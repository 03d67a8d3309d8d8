package bwtmatch

import (
	"math/rand"
	"slices"
	"testing"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/naive"
)

// bwtMethods is the BWT-path subset of allMethods: the methods that
// search without allocating.
var bwtMethods = []Method{AlgorithmA, BWTBaseline, STree, AlgorithmANoPhi}

// testLayout is one index layout under test: its search primitive and
// which match start positions it reports.
type testLayout struct {
	name   string
	search func(sc *Scratch, dst []Match, pattern []byte, k int, method Method, tr Tracer) ([]Match, Stats, error)
	owns   func(pos int) bool
}

// testLayouts indexes target in every layout: a standalone Index, a
// ShardedIndex searched over all of its shards and over a strict subset
// (the even ordinals), and a RelativeIndex against a base built from a
// mutated copy of target. Patterns up to 100 bases are valid on all.
// It also returns the sharded index, for tests that aim at its shard
// boundaries.
func testLayouts(t *testing.T, rng *rand.Rand, target []byte) ([]testLayout, *ShardedIndex) {
	t.Helper()
	mono, err := New(target)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(target, WithShards(6), WithMaxPatternLen(100))
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(mutateDNA(rng, target, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewRelative(base, target)
	if err != nil {
		t.Fatal(err)
	}
	var subset []int
	for i := 0; i < sh.Shards(); i += 2 {
		subset = append(subset, i)
	}
	all := func(int) bool { return true }
	return []testLayout{
		{"index", mono.SearchMethodScratch, all},
		{"sharded", sh.SearchMethodScratch, all},
		{"sharded-subset",
			func(sc *Scratch, dst []Match, pattern []byte, k int, method Method, tr Tracer) ([]Match, Stats, error) {
				return sh.searchShards(sc, dst, pattern, k, method, tr, subset)
			},
			func(pos int) bool {
				for _, i := range subset {
					if pos >= sh.shards[i].span.Start && pos < sh.man.Plan.OwnedEnd(i) {
						return true
					}
				}
				return false
			}},
		{"relative", rel.SearchMethodScratch, all},
	}, sh
}

// TestLayoutMethodEquivalence runs every Method through the search
// primitive of every layout, sharing one Scratch across all of them,
// and requires exactly the naive oracle's matches — positions and
// mismatch counts, in position order — restricted to the positions the
// layout owns. The queries mix short patterns with many matches (order
// and ties), excerpts that start exactly at a shard's owned boundary
// (exactly-once reporting) and excerpts from anywhere.
func TestLayoutMethodEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	target := randomDNA(rng, 2400)
	text, _ := alphabet.Encode(target)
	layouts, sh := testLayouts(t, rng, target)
	sc := NewScratch()
	for q := 0; q < 24; q++ {
		m, k := 10+rng.Intn(40), rng.Intn(4)
		p := rng.Intn(len(target) - m)
		switch q % 3 {
		case 0:
			m, k = 6+rng.Intn(4), rng.Intn(2)
			p = rng.Intn(len(target) - m)
		case 1:
			p = sh.man.Plan.OwnedEnd(rng.Intn(sh.Shards() - 1))
		}
		pattern := append([]byte(nil), target[p:p+m]...)
		for f := 0; f < k; f++ {
			pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		}
		pr, _ := alphabet.Encode(pattern)
		oracle := naive.Find(text, pr, k)
		for _, l := range layouts {
			var want []Match
			for _, pos := range oracle {
				if l.owns(int(pos)) {
					want = append(want, Match{Pos: int(pos), Mismatches: naive.Hamming(text[pos:int(pos)+m], pr, m)})
				}
			}
			for _, method := range allMethods {
				got, _, err := l.search(sc, nil, pattern, k, method, nil)
				if err != nil {
					t.Fatalf("%s %v (m=%d k=%d): %v", l.name, method, m, k, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s %v (m=%d k=%d): got %v, want %v", l.name, method, m, k, got, want)
				}
			}
		}
	}
}
