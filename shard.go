package bwtmatch

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bwtmatch/internal/shard"
)

// ShardedIndex is a k-mismatch index over one target partitioned into
// fixed-size shards, each carrying its own FM-index. Shards overlap by
// maxPatternLen-1 bytes, so every window of length <= maxPatternLen
// lies wholly inside at least one shard and sharded search is exact: a
// match is reported by the unique shard that owns its start position,
// and results come back deduplicated and in global position order,
// equal to what a monolithic Index over the same target returns.
//
// Sharding buys three things the monolithic index cannot offer: build
// parallelism (suffix-array construction stays serial per shard but
// distinct shards build concurrently — the SA-IS Amdahl ceiling of
// DESIGN.md §8 becomes per-shard, not per-target), bounded per-structure
// memory, and a unit of distribution (kmserved accounts for and
// observes each shard). The cost is the overlap — shards x
// (maxPatternLen-1) extra indexed bytes — and a pattern-length bound
// fixed at build time.
//
// A ShardedIndex is safe for concurrent use once built or loaded.
type ShardedIndex struct {
	man    shard.Manifest
	refs   []Ref
	shards []lazyShard

	// counters carries per-shard search telemetry; one slot per shard,
	// the slice itself immutable after construction.
	counters []shardCounter

	// closer releases the backing file of a lazily loaded index
	// (LoadShardedFile / LoadAnyFile); nil for built indexes.
	closer io.Closer
}

// Close releases the backing file of an index loaded with
// LoadShardedFile or LoadAnyFile; it is a no-op for built indexes.
// Searches after Close fail on any shard not yet materialized.
func (x *ShardedIndex) Close() error {
	if x.closer == nil {
		return nil
	}
	return x.closer.Close()
}

// lazyShard is one shard slot: either an eagerly built *Index or a
// loader deferred until first use (sharded files load the manifest
// eagerly and each shard payload lazily).
type lazyShard struct {
	span  shard.Span
	bytes atomic.Int64 // resident-size estimate for accounting
	once  sync.Once
	ready atomic.Bool
	idx   *Index
	err   error
	load  func() (*Index, error) // nil for eagerly built shards
}

// get returns the shard's index, materializing it on first use.
func (ls *lazyShard) get() (*Index, error) {
	ls.once.Do(func() {
		if ls.load != nil {
			ls.idx, ls.err = ls.load()
			if ls.err == nil {
				ls.bytes.Store(int64(ls.idx.ResidentBytes()))
			}
		}
		ls.ready.Store(ls.err == nil && ls.idx != nil)
	})
	return ls.idx, ls.err
}

// shardCounter aggregates per-shard search telemetry.
type shardCounter struct {
	searches atomic.Int64
	ns       atomic.Int64
}

// ShardInfo describes one shard of a ShardedIndex: its slice of the
// target, resident cost, load state, and cumulative search telemetry
// (the source of the km_shard_searches_total / km_shard_search_ns_total
// series kmserved exposes).
type ShardInfo struct {
	// Start and End delimit the target bytes this shard indexes
	// (End-Start includes the overlap into the next shard).
	Start, End int
	// Bytes estimates the shard's resident size; for a lazily loaded
	// shard that has not materialized yet it is the on-disk payload size.
	Bytes int64
	// Loaded reports whether the shard's index is materialized.
	Loaded bool
	// Searches counts per-shard sub-searches executed.
	Searches int64
	// SearchNS is the cumulative wall time of those sub-searches.
	SearchNS int64
}

// NewSharded builds a sharded index over a DNA target. Partitioning is
// set by WithShards or WithShardSize (default: GOMAXPROCS shards) and
// the pattern-length bound by WithMaxPatternLen; the remaining Options
// apply to every shard's FM-index. Shards build concurrently: each
// shard's suffix array is serial, but distinct shards overlap on the
// available CPUs.
func NewSharded(target []byte, opts ...Option) (*ShardedIndex, error) {
	return newSharded(target, nil, opts)
}

// NewShardedRefs is NewSharded over multiple named references (the
// sharded sibling of NewRefs): sequences are concatenated and matches
// resolve back to per-reference coordinates via Resolve.
func NewShardedRefs(refs []Reference, opts ...Option) (*ShardedIndex, error) {
	cat, table, err := concatRefs(refs)
	if err != nil {
		return nil, err
	}
	return newSharded(cat, table, opts)
}

func newSharded(target []byte, refs []Ref, opts []Option) (*ShardedIndex, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if len(target) == 0 {
		return nil, fmt.Errorf("%w: empty target", ErrInput)
	}
	if cfg.maxPatternLen < 1 {
		return nil, fmt.Errorf("%w: max pattern length %d", ErrInput, cfg.maxPatternLen)
	}
	if cfg.shardSize < 0 || cfg.shardCount < 0 {
		return nil, fmt.Errorf("%w: shard size %d / count %d", ErrInput, cfg.shardSize, cfg.shardCount)
	}
	overlap := cfg.maxPatternLen - 1
	var plan shard.Plan
	var err error
	switch {
	case cfg.shardSize > 0:
		plan, err = shard.New(len(target), cfg.shardSize, overlap)
	case cfg.shardCount > 0:
		plan, err = shard.ForCount(len(target), cfg.shardCount, overlap)
	default:
		plan, err = shard.ForCount(len(target), runtime.GOMAXPROCS(0), overlap)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}
	man := shard.Manifest{MaxPatternLen: cfg.maxPatternLen, Plan: plan, Refs: refsToShard(refs)}
	if err := man.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}

	x := &ShardedIndex{
		man:      man,
		refs:     refs,
		shards:   make([]lazyShard, plan.Count()),
		counters: make([]shardCounter, plan.Count()),
	}

	// Build shards concurrently, at most GOMAXPROCS at a time: each
	// build holds a full suffix array of its slice, so unbounded fan-out
	// would spike memory without finishing any sooner.
	// A shared phase sink would race across these concurrent builds
	// (BuildPhases accumulation is unsynchronized), so sharded in-memory
	// construction drops it; the streaming builder, which builds shards
	// serially, honors it.
	cfg.fm.Phases = nil
	fmOpt := func(c *config) { c.fm = cfg.fm }
	workers := runtime.GOMAXPROCS(0)
	if workers > plan.Count() {
		workers = plan.Count()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= plan.Count() {
					return
				}
				sp := plan.Spans[i]
				ls := &x.shards[i]
				ls.span = sp
				ls.idx, ls.err = New(target[sp.Start:sp.End], fmOpt)
				if ls.err == nil {
					ls.bytes.Store(int64(ls.idx.ResidentBytes()))
					ls.ready.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i := range x.shards {
		if err := x.shards[i].err; err != nil {
			return nil, fmt.Errorf("bwtmatch: building shard %d: %w", i, err)
		}
	}
	return x, nil
}

func refsToShard(refs []Ref) []shard.Ref {
	if len(refs) == 0 {
		return nil
	}
	out := make([]shard.Ref, len(refs))
	for i, r := range refs {
		out[i] = shard.Ref{Name: r.Name, Start: r.Start, Len: r.Len}
	}
	return out
}

// Len returns the target length.
func (x *ShardedIndex) Len() int { return x.man.Plan.TotalLen }

// Shards returns the number of shards.
func (x *ShardedIndex) Shards() int { return len(x.shards) }

// MaxPatternLen returns the longest pattern this index answers exactly
// (fixed at build time; the shard overlap is MaxPatternLen-1 bytes).
func (x *ShardedIndex) MaxPatternLen() int { return x.man.MaxPatternLen }

// SizeBytes estimates the resident size of all shards; shards not yet
// lazily materialized contribute their on-disk payload size.
func (x *ShardedIndex) SizeBytes() int {
	var total int64
	for i := range x.shards {
		total += x.shards[i].bytes.Load()
	}
	return int(total)
}

// Refs returns the reference table; nil for single-sequence indexes.
func (x *ShardedIndex) Refs() []Ref { return x.refs }

// Resolve maps a concatenated-target window [pos, pos+length) to
// reference coordinates; ok is false when the window crosses a
// reference boundary or there is no reference table.
func (x *ShardedIndex) Resolve(pos, length int) (ref string, refPos int, ok bool) {
	return resolveRefs(x.refs, pos, length)
}

// ShardInfo snapshots per-shard geometry, load state and telemetry.
func (x *ShardedIndex) ShardInfo() []ShardInfo {
	out := make([]ShardInfo, len(x.shards))
	for i := range x.shards {
		ls := &x.shards[i]
		out[i] = ShardInfo{
			Start:    ls.span.Start,
			End:      ls.span.End,
			Bytes:    ls.bytes.Load(),
			Loaded:   ls.ready.Load(),
			Searches: x.counters[i].searches.Load(),
			SearchNS: x.counters[i].ns.Load(),
		}
	}
	return out
}

// SearchMethodScratch is the sharded search primitive: the query runs
// through every shard in order with caller-managed memory, appending
// the owned matches, in global position order, to dst (which may be
// nil). Any Method is accepted, with the allocation and telemetry
// contract of (*Index).SearchMethodScratch; a non-nil tr additionally
// observes one "shard[i]" span per shard around the usual phase spans.
func (x *ShardedIndex) SearchMethodScratch(sc *Scratch, dst []Match, pattern []byte, k int, method Method, tr Tracer) ([]Match, Stats, error) {
	return x.searchShards(sc, dst, pattern, k, method, tr, nil)
}

// SearchMethodTraced runs the search primitive with a pooled Scratch and
// returns the merged global-coordinate matches in a fresh slice, with
// work statistics summed over the shards; tr may be nil.
func (x *ShardedIndex) SearchMethodTraced(pattern []byte, k int, method Method, tr Tracer) ([]Match, Stats, error) {
	return searchPooled(x, pattern, k, method, tr)
}

// searchShards runs the query through the listed shards in order (every
// shard when shards is nil) with one Scratch, appending into dst. The
// caller has validated the list. Owned ranges are disjoint and
// increasing, so the appended matches come out globally sorted.
func (x *ShardedIndex) searchShards(sc *Scratch, dst []Match, pattern []byte, k int, method Method, tr Tracer, shards []int) ([]Match, Stats, error) {
	var st Stats
	// Validate against the sharded geometry up front: each shard only
	// knows its own slice, so a pattern longer than MaxPatternLen must be
	// rejected here rather than silently missing boundary-straddling
	// matches.
	p, err := sc.encode(pattern, k)
	if err == nil && len(p) > x.man.MaxPatternLen {
		err = fmt.Errorf("%w: pattern length %d exceeds the sharded index bound %d (rebuild with WithMaxPatternLen)",
			ErrInput, len(p), x.man.MaxPatternLen)
	}
	if err != nil {
		return dst, st, err
	}
	n := len(shards)
	if shards == nil {
		n = len(x.shards)
	}
	out := dst
	for j := range n {
		i := j
		if shards != nil {
			i = shards[j]
		}
		var ss Stats
		out, ss, err = x.searchShard(i, sc, out, p, k, method, tr)
		if err != nil {
			return dst, Stats{}, err
		}
		st.add(ss)
	}
	return out, st, nil
}

// searchShard runs the encoded query against shard i and appends, in
// global coordinates, only the matches the shard owns — global start
// position inside [span.Start, OwnedEnd(i)), the exactly-once reporting
// invariant.
func (x *ShardedIndex) searchShard(i int, sc *Scratch, dst []Match, p []byte, k int, method Method, tr Tracer) ([]Match, Stats, error) {
	idx, err := x.shards[i].get()
	if err != nil {
		return dst, Stats{}, fmt.Errorf("%w: shard %d: %v", ErrFormat, i, err)
	}
	if tr != nil {
		tr.Begin(fmt.Sprintf("shard[%d]", i))
		defer tr.End()
	}
	start := time.Now()
	dst, st, err := idx.search(sc, dst, p, k, method, tr, x.shards[i].span.Start, x.man.Plan.OwnedEnd(i))
	if err != nil {
		return dst, st, err
	}
	x.counters[i].searches.Add(1)
	x.counters[i].ns.Add(time.Since(start).Nanoseconds())
	return dst, st, nil
}

// CheckShardSet validates a shard-subset request: a non-empty, strictly
// increasing list of shard ordinals (the worker-side contract of a
// coordinator's shard-subset search). Violations wrap ErrInput.
func (x *ShardedIndex) CheckShardSet(shards []int) error {
	if len(shards) == 0 {
		return fmt.Errorf("%w: empty shard set", ErrInput)
	}
	prev := -1
	for _, s := range shards {
		if s < 0 || s >= len(x.shards) {
			return fmt.Errorf("%w: shard %d outside [0,%d)", ErrInput, s, len(x.shards))
		}
		if s <= prev {
			return fmt.Errorf("%w: shard set must be strictly increasing (%d after %d)", ErrInput, s, prev)
		}
		prev = s
	}
	return nil
}

// MapShardsContext is MapAllContext restricted to a subset of shards:
// every query runs against exactly the shards listed (strictly
// increasing ordinals), and each result carries only the matches those
// shards own, in global position order. Because owned ranges partition
// [0, Len()), a coordinator that spreads disjoint shard subsets over
// worker processes and concatenates the per-subset results by position
// reconstructs exactly what MapAllContext over all shards returns —
// the cluster tier's exactly-once contract. An invalid shard set fails
// every query with ErrInput.
func (x *ShardedIndex) MapShardsContext(ctx context.Context, queries []Query, method Method, workers int, shards []int) []Result {
	if err := x.CheckShardSet(shards); err != nil {
		results := make([]Result, len(queries))
		for i := range results {
			results[i] = Result{Err: err}
		}
		return results
	}
	return mapQueries(ctx, queries, workers, func(sc *Scratch, q Query) ([]Match, Stats, error) {
		return x.searchShards(sc, nil, q.Pattern, q.K, method, nil, shards)
	})
}

// MapAllContext runs every query with the given method across workers
// goroutines and returns results in query order, with the same
// distribution, ordering and cancellation contract as
// (*Index).MapAllContext. Parallelism is across queries, not shards:
// each worker pins one Scratch and walks all shards serially per query.
func (x *ShardedIndex) MapAllContext(ctx context.Context, queries []Query, method Method, workers int) []Result {
	return mapAll(ctx, x, queries, method, workers)
}

// CheckInvariants verifies cross-shard consistency: the manifest's
// geometry (deep-checked under -tags kminvariants), per-shard FM-index
// structure for every materialized shard, shard text lengths against
// their spans, and byte equality of every overlap region between
// consecutive loaded shards. Unloaded shards are skipped, not forced.
func (x *ShardedIndex) CheckInvariants() error {
	if err := x.man.Validate(); err != nil {
		return err
	}
	if err := x.man.CheckInvariants(); err != nil {
		return err
	}
	for i := range x.shards {
		ls := &x.shards[i]
		if !ls.ready.Load() {
			continue
		}
		if ls.idx.Len() != ls.span.Len() {
			return fmt.Errorf("bwtmatch: shard %d holds %d bytes for span [%d,%d)",
				i, ls.idx.Len(), ls.span.Start, ls.span.End)
		}
		if err := ls.idx.searcher.Index().CheckInvariants(); err != nil {
			return fmt.Errorf("bwtmatch: shard %d: %w", i, err)
		}
		if i == 0 {
			continue
		}
		prev := &x.shards[i-1]
		if !prev.ready.Load() {
			continue
		}
		// The tail of shard i-1 past this shard's start must equal this
		// shard's head base for base: both index the same target bases.
		off := ls.span.Start - prev.span.Start
		for j := 0; j < prev.span.End-ls.span.Start; j++ {
			if prev.idx.text.Get(off+j) != ls.idx.text.Get(j) {
				return fmt.Errorf("bwtmatch: shards %d/%d disagree at global position %d",
					i-1, i, ls.span.Start+j)
			}
		}
	}
	return nil
}
