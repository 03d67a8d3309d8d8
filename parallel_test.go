package bwtmatch

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func makeQueries(rng *rand.Rand, target []byte, n int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		m := 8 + rng.Intn(20)
		p := rng.Intn(len(target) - m)
		pat := append([]byte(nil), target[p:p+m]...)
		pat[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		qs[i] = Query{ID: "q", Pattern: pat, K: rng.Intn(3)}
	}
	return qs
}

func TestMapAllMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	target := randomDNA(rng, 5000)
	idx, err := New(target)
	if err != nil {
		t.Fatal(err)
	}
	queries := makeQueries(rng, target, 60)
	for _, method := range []Method{AlgorithmA, Amir, Cole} {
		serial := idx.MapAllContext(context.Background(), queries, method, 1)
		parallel := idx.MapAllContext(context.Background(), queries, method, 8)
		for i := range queries {
			if serial[i].Err != nil || parallel[i].Err != nil {
				t.Fatalf("query %d errors: %v / %v", i, serial[i].Err, parallel[i].Err)
			}
			if len(serial[i].Matches) != len(parallel[i].Matches) {
				t.Fatalf("%v query %d: %d vs %d matches", method, i,
					len(serial[i].Matches), len(parallel[i].Matches))
			}
			for j := range serial[i].Matches {
				if serial[i].Matches[j] != parallel[i].Matches[j] {
					t.Fatalf("%v query %d match %d differs", method, i, j)
				}
			}
		}
	}
}

func TestMapAllPerQueryErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	idx, _ := New(randomDNA(rng, 500))
	queries := []Query{
		{Pattern: []byte("acgt"), K: 1},
		{Pattern: []byte("aNg"), K: 1}, // invalid character
		{Pattern: nil, K: 1},           // empty
		{Pattern: []byte("ttga"), K: 0},
	}
	res := idx.MapAllContext(context.Background(), queries, AlgorithmA, 4)
	if res[0].Err != nil || res[3].Err != nil {
		t.Errorf("valid queries failed: %v %v", res[0].Err, res[3].Err)
	}
	if res[1].Err == nil || res[2].Err == nil {
		t.Error("invalid queries did not report errors")
	}
}

func TestMapAllContextPerQueryErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	idx, _ := New(randomDNA(rng, 500))
	queries := []Query{
		{Pattern: []byte("acgt"), K: 1},
		{Pattern: []byte("aNg"), K: 1},   // invalid character
		{Pattern: nil, K: 1},             // empty
		{Pattern: []byte("acgt"), K: -1}, // negative budget
		{Pattern: []byte("ttga"), K: 0},
	}
	for _, workers := range []int{1, 4} {
		res := idx.MapAllContext(context.Background(), queries, AlgorithmA, workers)
		if res[0].Err != nil || res[4].Err != nil {
			t.Errorf("workers=%d: valid queries failed: %v %v", workers, res[0].Err, res[4].Err)
		}
		for _, bad := range []int{1, 2, 3} {
			if !errors.Is(res[bad].Err, ErrInput) {
				t.Errorf("workers=%d query %d: error = %v, want ErrInput", workers, bad, res[bad].Err)
			}
		}
	}
}

func TestMapAllContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(176))
	target := randomDNA(rng, 2000)
	idx, _ := New(target)
	queries := makeQueries(rng, target, 200)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: everything after warm-up must short-circuit
	res := idx.MapAllContext(ctx, queries, AlgorithmA, 8)
	if len(res) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(res), len(queries))
	}
	cancelled := 0
	for _, r := range res {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("cancelled context produced no context.Canceled results")
	}

	// An un-cancelled context answers every query like a single search.
	for i, r := range idx.MapAllContext(context.Background(), queries, AlgorithmA, 8) {
		want, err := Search(idx, queries[i].Pattern, queries[i].K)
		if r.Err != nil || err != nil || !slices.Equal(r.Matches, want) {
			t.Fatalf("query %d: MapAllContext and Search disagree", i)
		}
	}
}

func TestMapAllStatsSurfaced(t *testing.T) {
	rng := rand.New(rand.NewSource(177))
	target := randomDNA(rng, 4000)
	idx, _ := New(target)
	queries := makeQueries(rng, target, 10)
	res := idx.MapAllContext(context.Background(), queries, AlgorithmA, 4)
	steps := 0
	for _, r := range res {
		steps += r.Stats.StepCalls
	}
	if steps == 0 {
		t.Error("MapAllContext results carry no Stats.StepCalls")
	}
}

func TestMapAllEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	idx, _ := New(randomDNA(rng, 100))
	if res := idx.MapAllContext(context.Background(), nil, AlgorithmA, 4); len(res) != 0 {
		t.Errorf("MapAllContext(nil) = %v", res)
	}
}

// TestMapAllChunkBoundaries pins the work-stealing distribution across
// query counts that land on every interesting edge of the chunked
// claiming loop: fewer queries than one chunk, exactly chunk*workers,
// one past a chunk boundary, and enough to force many claims per
// worker. Every slot must be filled exactly once with the serial
// answer.
func TestMapAllChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(178))
	target := randomDNA(rng, 3000)
	idx, err := New(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, mapChunkMax, mapChunkMax + 1, 4 * mapChunkMax, 4*mapChunkMax + 1, 300} {
		queries := makeQueries(rng, target, n)
		serial := idx.MapAllContext(context.Background(), queries, AlgorithmA, 1)
		for _, workers := range []int{2, 3, 8} {
			got := idx.MapAllContext(context.Background(), queries, AlgorithmA, workers)
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: %d results", n, workers, len(got))
			}
			for i := range got {
				if got[i].Err != nil {
					t.Fatalf("n=%d workers=%d query %d: %v", n, workers, i, got[i].Err)
				}
				if len(got[i].Matches) != len(serial[i].Matches) {
					t.Fatalf("n=%d workers=%d query %d: %d vs %d matches",
						n, workers, i, len(got[i].Matches), len(serial[i].Matches))
				}
				for j := range got[i].Matches {
					if got[i].Matches[j] != serial[i].Matches[j] {
						t.Fatalf("n=%d workers=%d query %d match %d differs", n, workers, i, j)
					}
				}
			}
		}
	}
}

// TestMapAllContextMidBatchCancel cancels while the batch is running
// and checks the contract: every result slot is either a completed
// search or a context error, never a zero value left unwritten.
func TestMapAllContextMidBatchCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	target := randomDNA(rng, 4000)
	idx, _ := New(target)
	queries := makeQueries(rng, target, 400)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []Result, 1)
	go func() { done <- idx.MapAllContext(ctx, queries, AlgorithmA, 4) }()
	cancel()
	res := <-done
	if len(res) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(res), len(queries))
	}
	for i, r := range res {
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("query %d: unexpected error %v", i, r.Err)
		}
		if r.Err == nil {
			// A completed search must have really run: verify one
			// representative field is coherent (matches sorted).
			for j := 1; j < len(r.Matches); j++ {
				if r.Matches[j].Pos < r.Matches[j-1].Pos {
					t.Fatalf("query %d: unsorted matches", i)
				}
			}
		}
	}
}

func TestMapAllMoreWorkersThanQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	target := randomDNA(rng, 1000)
	idx, _ := New(target)
	queries := makeQueries(rng, target, 3)
	res := idx.MapAllContext(context.Background(), queries, AlgorithmA, 64)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
}
