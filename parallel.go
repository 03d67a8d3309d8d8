package bwtmatch

import (
	"context"
	"sync"
	"sync/atomic"
)

// Query is one unit of bulk search work for MapAllContext.
type Query struct {
	// ID labels the query in logs (optional).
	ID string
	// Pattern is the DNA pattern to search.
	Pattern []byte
	// K is the mismatch budget.
	K int
}

// Result pairs a query's matches with any per-query error.
type Result struct {
	Matches []Match
	// Stats carries the per-query work counters (zero for queries that
	// errored or were cancelled).
	Stats Stats
	Err   error
}

// mapChunkMax bounds how many query indices one work-stealing claim
// covers. Larger chunks amortize the shared counter; smaller chunks
// balance load when per-query cost is skewed (a handful of repetitive
// reads can cost 100× the median).
const mapChunkMax = 32

// MapAllContext runs every query with the given method across workers
// goroutines and returns results in query order. The Index is immutable
// after construction, so the workers share it without locking; workers
// <= 1 runs inline. Per-query failures are reported in the corresponding
// Result rather than aborting the batch — reads in real pipelines fail
// individually (bad characters, zero length) and the rest must proceed.
//
// Work is distributed by chunked atomic claiming: each worker owns a
// pinned Scratch and repeatedly claims the next run of query indices
// from a shared counter, so there is no dispatcher goroutine and no
// channel handoff on the hot path, and the BWT-path methods run
// allocation-free once the scratches are warm.
//
// When ctx is cancelled the batch stops early: queries whose search has
// not yet begun get Result{Err: ctx.Err()}, queries already running
// finish normally (individual searches are not interruptible), and the
// call returns only after all workers have drained, so the results
// slice is never written to after return.
func (x *Index) MapAllContext(ctx context.Context, queries []Query, method Method, workers int) []Result {
	return mapAll(ctx, x, queries, method, workers)
}

// mapAll is MapAllContext for every layout: each query runs through
// m's search primitive on its worker's pinned Scratch.
func mapAll(ctx context.Context, m Matcher, queries []Query, method Method, workers int) []Result {
	return mapQueries(ctx, queries, workers, func(sc *Scratch, q Query) ([]Match, Stats, error) {
		return m.SearchMethodScratch(sc, nil, q.Pattern, q.K, method, nil)
	})
}

// mapQueries is the batch driver behind every MapAllContext and
// MapShardsContext, and the only place search parallelism lives: it
// runs search exactly once per query, distributing the queries over
// workers goroutines by chunked atomic claiming, with one pooled
// Scratch pinned per worker, and applies the cancellation contract of
// MapAllContext. search must be safe for concurrent invocation.
func mapQueries(ctx context.Context, queries []Query, workers int, search func(sc *Scratch, q Query) ([]Match, Stats, error)) []Result {
	results := make([]Result, len(queries))
	run := func(sc *Scratch, i int) {
		if err := ctx.Err(); err != nil {
			results[i] = Result{Err: err}
			return
		}
		m, st, err := search(sc, queries[i])
		results[i] = Result{Matches: m, Stats: st, Err: err}
	}
	n := len(queries)
	if workers <= 1 || n <= 1 {
		sc := scratchPool.Get().(*Scratch)
		for i := 0; i < n; i++ {
			run(sc, i)
		}
		scratchPool.Put(sc)
		return results
	}
	if workers > n {
		workers = n
	}
	// Seed's matcher and a relative tenant's rebuilt text build lazily
	// behind a sync.Once; run the first query before fan-out so workers
	// never contend on first use.
	warm := scratchPool.Get().(*Scratch)
	run(warm, 0)
	scratchPool.Put(warm)

	chunk := n / (workers * 4)
	if chunk > mapChunkMax {
		chunk = mapChunkMax
	}
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	next.Store(1) // query 0 ran during warm-up
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*Scratch)
			defer scratchPool.Put(sc)
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					run(sc, i)
				}
			}
		}()
	}
	wg.Wait()
	return results
}
