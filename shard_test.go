package bwtmatch

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// shardedPair builds a monolithic and a sharded index over the same
// target, with a shard size small enough that shard boundaries fall
// inside typical patterns.
func shardedPair(t *testing.T, target []byte, opts ...Option) (*Index, *ShardedIndex) {
	t.Helper()
	mono, err := New(target)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(target, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return mono, sh
}

// TestShardedEquivalence is the correctness property of the whole
// sharding design: for random targets, shard geometries and patterns —
// including patterns sampled across shard boundaries — the sharded
// index returns exactly the monolithic result: same count, same
// positions, same mismatch counts, same (global position) order.
func TestShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(511))
	for trial := 0; trial < 12; trial++ {
		n := 300 + rng.Intn(1500)
		target := randomDNA(rng, n)
		maxPat := 40
		shardSize := 50 + rng.Intn(300)
		mono, sh := shardedPair(t, target,
			WithShardSize(shardSize), WithMaxPatternLen(maxPat))
		if sh.Shards() < 1 {
			t.Fatal("no shards")
		}
		for q := 0; q < 12; q++ {
			m := 4 + rng.Intn(maxPat-4)
			k := rng.Intn(4)
			var pattern []byte
			switch q % 3 {
			case 0: // random pattern
				pattern = randomDNA(rng, m)
			case 1: // mutated excerpt from anywhere
				p := rng.Intn(len(target) - m)
				pattern = append([]byte(nil), target[p:p+m]...)
				for f := 0; f < k; f++ {
					pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
				}
			default: // excerpt straddling a shard boundary
				b := shardSize * (1 + rng.Intn(max(1, sh.Shards()-1)))
				p := b - m/2
				if p < 0 {
					p = 0
				}
				if p+m > len(target) {
					p = len(target) - m
				}
				pattern = append([]byte(nil), target[p:p+m]...)
			}
			for _, method := range []Method{AlgorithmA, BWTBaseline, Seed} {
				want, _, err := SearchMethod(mono, pattern, k, method)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := SearchMethod(sh, pattern, k, method)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d %v k=%d: sharded %d matches, monolithic %d (shardSize %d, pattern %s)",
						trial, method, k, len(got), len(want), shardSize, pattern)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d %v: match %d = %+v, want %+v", trial, method, i, got[i], want[i])
					}
				}
			}
		}
		if err := sh.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestShardedBoundarySaturation plants a match at every position of a
// homopolymer target so every shard boundary falls inside many
// overlapping matches — the configuration where double-reporting or
// dropped overlap matches would show instantly.
func TestShardedBoundarySaturation(t *testing.T) {
	target := bytes.Repeat([]byte("a"), 400)
	mono, sh := shardedPair(t, target, WithShardSize(37), WithMaxPatternLen(16))
	for _, k := range []int{0, 1, 2} {
		pattern := bytes.Repeat([]byte("a"), 11)
		if k > 0 {
			pattern[3] = 'c' // forces mismatches while keeping matches everywhere
		}
		want, _, err := SearchMethod(mono, pattern, k, AlgorithmA)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := SearchMethod(sh, pattern, k, AlgorithmA)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d vs %d matches", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d match %d: %+v vs %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestShardedRejectsLongPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	target := randomDNA(rng, 500)
	sh, err := NewSharded(target, WithShards(3), WithMaxPatternLen(20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Search(sh, randomDNA(rng, 21), 1); !errors.Is(err, ErrInput) {
		t.Fatalf("over-long pattern: error = %v, want ErrInput", err)
	}
	if _, err := Search(sh, randomDNA(rng, 20), 1); err != nil {
		t.Fatalf("bound-length pattern rejected: %v", err)
	}
	// The scratch path enforces the same bound.
	sc := NewScratch()
	if _, _, err := sh.SearchMethodScratch(sc, nil, randomDNA(rng, 21), 1, AlgorithmA, nil); !errors.Is(err, ErrInput) {
		t.Fatalf("scratch path accepted over-long pattern: %v", err)
	}
}

func TestShardedConfigErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(513))
	target := randomDNA(rng, 100)
	if _, err := NewSharded(nil); !errors.Is(err, ErrInput) {
		t.Error("empty target accepted")
	}
	if _, err := NewSharded(target, WithMaxPatternLen(0)); !errors.Is(err, ErrInput) {
		t.Error("zero pattern bound accepted")
	}
	if _, err := NewSharded(target, WithShardSize(-5)); !errors.Is(err, ErrInput) {
		t.Error("negative shard size accepted")
	}
	if _, err := NewShardedRefs(nil); !errors.Is(err, ErrInput) {
		t.Error("empty reference list accepted")
	}
}

func TestShardedRefsResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(514))
	refs := []Reference{
		{Name: "chr1", Seq: randomDNA(rng, 400)},
		{Name: "chr2", Seq: randomDNA(rng, 300)},
	}
	sh, err := NewShardedRefs(refs, WithShardSize(150), WithMaxPatternLen(32))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := NewRefs(refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Refs()) != 2 {
		t.Fatalf("Refs() = %v", sh.Refs())
	}
	// Pattern from inside chr2 must resolve identically on both layouts.
	pattern := refs[1].Seq[100:124]
	sm, _ := Search(sh, pattern, 1)
	mm, _ := Search(mono, pattern, 1)
	if len(sm) != len(mm) {
		t.Fatalf("sharded %d matches, monolithic %d", len(sm), len(mm))
	}
	for i := range sm {
		sr, sp, sok := sh.Resolve(sm[i].Pos, len(pattern))
		mr, mp, mok := mono.Resolve(mm[i].Pos, len(pattern))
		if sr != mr || sp != mp || sok != mok {
			t.Fatalf("match %d resolves to %s:%d/%v vs %s:%d/%v", i, sr, sp, sok, mr, mp, mok)
		}
	}
}

func TestShardedSearchBest(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	target := randomDNA(rng, 900)
	mono, sh := shardedPair(t, target, WithShards(4), WithMaxPatternLen(40))
	for q := 0; q < 10; q++ {
		m := 10 + rng.Intn(20)
		p := rng.Intn(len(target) - m)
		pattern := append([]byte(nil), target[p:p+m]...)
		pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		wb, wm, err := SearchBest(mono, pattern, 3)
		if err != nil {
			t.Fatal(err)
		}
		gb, gm, err := SearchBest(sh, pattern, 3)
		if err != nil {
			t.Fatal(err)
		}
		if gb != wb || len(gm) != len(wm) {
			t.Fatalf("SearchBest: k=%d/%d matches=%d/%d", gb, wb, len(gm), len(wm))
		}
	}
}

// TestShardedMapAllContext checks batch equivalence and the
// cancellation contract on the sharded implementation.
func TestShardedMapAllContext(t *testing.T) {
	rng := rand.New(rand.NewSource(516))
	target := randomDNA(rng, 1200)
	mono, sh := shardedPair(t, target, WithShardSize(200), WithMaxPatternLen(48))
	var queries []Query
	for i := 0; i < 40; i++ {
		m := 8 + rng.Intn(30)
		p := rng.Intn(len(target) - m)
		pat := append([]byte(nil), target[p:p+m]...)
		pat[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		queries = append(queries, Query{Pattern: pat, K: rng.Intn(3)})
	}
	queries = append(queries, Query{Pattern: []byte("acgt!"), K: 1}) // per-query error
	want := mono.MapAllContext(context.Background(), queries, AlgorithmA, 4)
	got := sh.MapAllContext(context.Background(), queries, AlgorithmA, 4)
	for i := range queries {
		if (want[i].Err == nil) != (got[i].Err == nil) {
			t.Fatalf("query %d: err %v vs %v", i, got[i].Err, want[i].Err)
		}
		if len(want[i].Matches) != len(got[i].Matches) {
			t.Fatalf("query %d: %d vs %d matches", i, len(got[i].Matches), len(want[i].Matches))
		}
		for j := range want[i].Matches {
			if want[i].Matches[j] != got[i].Matches[j] {
				t.Fatalf("query %d match %d differs", i, j)
			}
		}
	}
	// Cancellation: every result is either a completed search or ctx.Err.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range sh.MapAllContext(ctx, queries[:10], AlgorithmA, 2) {
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) && !errors.Is(r.Err, ErrInput) {
			t.Fatalf("unexpected error under cancellation: %v", r.Err)
		}
	}
}

// TestShardedScratchZeroAlloc extends the monolithic zero-alloc pin to
// the sharded serial path: with a warm Scratch and destination, a
// sharded SearchMethodScratch allocates nothing even though it crosses
// every shard.
func TestShardedScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	target := randomDNA(rng, 30000)
	sh, err := NewSharded(target, WithShards(5), WithMaxPatternLen(100))
	if err != nil {
		t.Fatal(err)
	}
	var pats [][]byte
	for _, m := range []int{8, 20, 60} {
		p := rng.Intn(len(target) - m)
		pat := append([]byte(nil), target[p:p+m]...)
		pat[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		pats = append(pats, pat)
	}
	sc := NewScratch()
	dst := make([]Match, 0, 4096)
	for range 3 {
		for _, p := range pats {
			var err error
			dst, _, err = sh.SearchMethodScratch(sc, dst[:0], p, 2, AlgorithmA, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, p := range pats {
			dst, _, _ = sh.SearchMethodScratch(sc, dst[:0], p, 2, AlgorithmA, nil)
		}
	})
	if allocs != 0 {
		t.Errorf("AllocsPerRun = %v, want 0", allocs)
	}
}

func TestShardedTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(518))
	target := randomDNA(rng, 600)
	sh, err := NewSharded(target, WithShards(3), WithMaxPatternLen(24))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	for i := 0; i < rounds; i++ {
		if _, err := Search(sh, randomDNA(rng, 12), 1); err != nil {
			t.Fatal(err)
		}
	}
	info := sh.ShardInfo()
	if len(info) != sh.Shards() {
		t.Fatalf("ShardInfo has %d entries for %d shards", len(info), sh.Shards())
	}
	for i, si := range info {
		if !si.Loaded {
			t.Errorf("built shard %d reports unloaded", i)
		}
		if si.Searches != rounds {
			t.Errorf("shard %d: %d searches, want %d", i, si.Searches, rounds)
		}
		if si.Bytes <= 0 {
			t.Errorf("shard %d: bytes = %d", i, si.Bytes)
		}
		if si.End <= si.Start {
			t.Errorf("shard %d: span [%d,%d)", i, si.Start, si.End)
		}
	}
	if sh.SizeBytes() <= 0 {
		t.Error("SizeBytes = 0")
	}
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(519))
	refs := []Reference{
		{Name: "chr1", Seq: randomDNA(rng, 700)},
		{Name: "chr2", Seq: randomDNA(rng, 500)},
	}
	orig, err := NewShardedRefs(refs, WithShardSize(250), WithMaxPatternLen(32))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "genome.bwts")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != orig.Len() || loaded.Shards() != orig.Shards() ||
		loaded.MaxPatternLen() != orig.MaxPatternLen() || len(loaded.Refs()) != 2 {
		t.Fatalf("geometry mismatch after reload: len %d/%d shards %d/%d",
			loaded.Len(), orig.Len(), loaded.Shards(), orig.Shards())
	}
	// Lazy contract: nothing is materialized until searched.
	for i, si := range loaded.ShardInfo() {
		if si.Loaded {
			t.Fatalf("shard %d materialized before first search", i)
		}
	}
	for q := 0; q < 15; q++ {
		m := 8 + rng.Intn(24)
		pattern := randomDNA(rng, m)
		a, _, err := SearchMethod(orig, pattern, 2, AlgorithmA)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := SearchMethod(loaded, pattern, 2, AlgorithmA)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%d vs %d matches after reload", len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("match %d differs after reload", i)
			}
		}
	}
	for i, si := range loaded.ShardInfo() {
		if !si.Loaded {
			t.Fatalf("shard %d still unmaterialized after searches", i)
		}
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A freshly loaded copy can be forced all at once.
	forced, err := LoadShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer forced.Close()
	if err := forced.LoadAll(); err != nil {
		t.Fatal(err)
	}
	// And a loaded index re-saves byte-identically.
	var resave bytes.Buffer
	if err := forced.Save(&resave); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resave.Bytes(), first) {
		t.Fatal("re-saved sharded index differs from the original file")
	}
}

func TestLoadAnyFileDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(520))
	target := randomDNA(rng, 600)
	dir := t.TempDir()

	mono, err := New(target)
	if err != nil {
		t.Fatal(err)
	}
	monoPath := filepath.Join(dir, "mono.bwt")
	if err := mono.SaveFile(monoPath); err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(target, WithShards(3), WithMaxPatternLen(32))
	if err != nil {
		t.Fatal(err)
	}
	shPath := filepath.Join(dir, "sharded.bwt")
	if err := sh.SaveFile(shPath); err != nil {
		t.Fatal(err)
	}

	m1, err := LoadAnyFile(monoPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m1.(*Index); !ok {
		t.Fatalf("monolithic file loaded as %T", m1)
	}
	m2, err := LoadAnyFile(shPath)
	if err != nil {
		t.Fatal(err)
	}
	s2, ok := m2.(*ShardedIndex)
	if !ok {
		t.Fatalf("sharded file loaded as %T", m2)
	}
	defer s2.Close()

	pattern := target[200:220]
	a, _ := Search(m1, pattern, 1)
	b, _ := Search(m2, pattern, 1)
	if len(a) != len(b) {
		t.Fatalf("layouts disagree: %d vs %d", len(a), len(b))
	}
	if _, err := LoadAnyFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("garbage data here"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAnyFile(bad); !errors.Is(err, ErrFormat) {
		t.Errorf("garbage file: error = %v, want ErrFormat", err)
	}
}

func TestLoadShardedRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	sh, err := NewSharded(randomDNA(rng, 500), WithShards(3), WithMaxPatternLen(16))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncations must be rejected eagerly (header/length-prefix damage)
	// or at shard materialization (payload damage) — always ErrFormat.
	for cut := 0; cut < len(full); cut += 1 + cut/4 {
		x, err := LoadSharded(bytes.NewReader(full[:cut]), int64(cut))
		if err == nil {
			err = x.LoadAll()
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("truncation at %d: error = %v, want ErrFormat", cut, err)
		}
	}
	// Trailing garbage is structural corruption, not ignorable padding.
	padded := append(append([]byte(nil), full...), 0xEE, 0xEE)
	if _, err := LoadSharded(bytes.NewReader(padded), int64(len(padded))); !errors.Is(err, ErrFormat) {
		t.Fatalf("trailing bytes: error = %v, want ErrFormat", err)
	}
	// The intact file still loads and searches (the loop wasn't vacuous).
	x, err := LoadSharded(bytes.NewReader(full), int64(len(full)))
	if err != nil {
		t.Fatal(err)
	}
	if err := x.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := Search(x, []byte("acgtacgt"), 1); err != nil {
		t.Fatal(err)
	}
}

// TestMapShardsContext pins the subset-search contract the cluster
// coordinator is built on: searching disjoint shard subsets and
// concatenating the results in subset order reproduces MapAllContext
// exactly, and invalid subsets fail every query with ErrInput.
func TestMapShardsContext(t *testing.T) {
	rng := rand.New(rand.NewSource(523))
	target := randomDNA(rng, 1500)
	_, sh := shardedPair(t, target, WithShardSize(250), WithMaxPatternLen(48))
	n := sh.Shards()
	var queries []Query
	for i := 0; i < 25; i++ {
		m := 8 + rng.Intn(30)
		p := rng.Intn(len(target) - m)
		pat := append([]byte(nil), target[p:p+m]...)
		pat[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		queries = append(queries, Query{Pattern: pat, K: rng.Intn(3)})
	}
	want := sh.MapAllContext(context.Background(), queries, AlgorithmA, 2)

	// Interleaved partition {0,2,4,...} / {1,3,5,...}: union must be
	// exact, and because owned ranges are increasing in shard order,
	// merging the two subsets by position reproduces the full ordering.
	var evens, odds []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			evens = append(evens, i)
		} else {
			odds = append(odds, i)
		}
	}
	ge := sh.MapShardsContext(context.Background(), queries, AlgorithmA, 2, evens)
	go_ := sh.MapShardsContext(context.Background(), queries, AlgorithmA, 2, odds)
	for i := range queries {
		if ge[i].Err != nil || go_[i].Err != nil {
			t.Fatalf("query %d: subset errors %v / %v", i, ge[i].Err, go_[i].Err)
		}
		merged := append(append([]Match(nil), ge[i].Matches...), go_[i].Matches...)
		sortMatches(merged)
		if len(merged) != len(want[i].Matches) {
			t.Fatalf("query %d: union %d matches, want %d", i, len(merged), len(want[i].Matches))
		}
		for j, m := range merged {
			if m != want[i].Matches[j] {
				t.Fatalf("query %d match %d: %+v, want %+v", i, j, m, want[i].Matches[j])
			}
		}
	}

	// Invalid subsets poison every result with ErrInput.
	for name, bad := range map[string][]int{
		"empty":          {},
		"out of range":   {0, n},
		"negative":       {-1},
		"not increasing": {1, 1},
	} {
		for _, r := range sh.MapShardsContext(context.Background(), queries[:2], AlgorithmA, 1, bad) {
			if !errors.Is(r.Err, ErrInput) {
				t.Errorf("%s subset: err %v, want ErrInput", name, r.Err)
			}
		}
	}
}

// TestShardedNonCoreLengthCheck pins the fix for a latent hazard: the
// non-core methods (online, stree, ...) go through each shard's own
// matcher, which does not know the sharded MaxPatternLen bound, so the
// length check must happen before the per-shard loop or an overlong
// pattern would silently miss boundary-straddling matches instead of
// erroring.
func TestShardedNonCoreLengthCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(524))
	target := randomDNA(rng, 800)
	_, sh := shardedPair(t, target, WithShardSize(200), WithMaxPatternLen(24))
	long := randomDNA(rng, 25)
	for _, method := range []Method{AlgorithmA, Online, STree} {
		for _, r := range sh.MapAllContext(context.Background(), []Query{{Pattern: long, K: 1}}, method, 1) {
			if !errors.Is(r.Err, ErrInput) {
				t.Errorf("method %v: overlong pattern err %v, want ErrInput", method, r.Err)
			}
		}
	}
}

func sortMatches(ms []Match) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Pos < ms[j-1].Pos; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}
