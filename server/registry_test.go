package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"bwtmatch"
)

func buildIndex(t *testing.T, seed int64, bases int) *bwtmatch.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	idx, err := bwtmatch.New(randomDNA(rng, bases))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestRegistryAddGetRemove(t *testing.T) {
	r := NewRegistry(0)
	idx := buildIndex(t, 1, 800)
	if err := r.Add("g", idx); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("g", idx); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Add: %v, want ErrExists", err)
	}
	if err := r.Add("", idx); err == nil {
		t.Error("empty name accepted")
	}
	got, err := r.Get("g")
	if err != nil || got != idx {
		t.Fatalf("Get: %v %v", got, err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing): %v, want ErrNotFound", err)
	}
	if !r.Remove("g") || r.Remove("g") {
		t.Error("Remove semantics wrong")
	}
	if r.Len() != 0 || r.Resident() != 0 {
		t.Errorf("registry not empty after Remove: len=%d resident=%d", r.Len(), r.Resident())
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	a := buildIndex(t, 2, 1000)
	perIndex := indexBytes(a)
	// Budget for exactly two indexes of this size.
	r := NewRegistry(2*perIndex + perIndex/2)
	var evicted []string
	r.onEvict = func(name string) { evicted = append(evicted, name) }

	b := buildIndex(t, 3, 1000)
	c := buildIndex(t, 4, 1000)
	if err := r.Add("a", a); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("b", b); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" becomes the LRU victim.
	if _, err := r.Get("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("c", c); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if _, err := r.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("b still resident after eviction")
	}
	for _, name := range []string{"a", "c"} {
		if _, err := r.Get(name); err != nil {
			t.Errorf("%s missing after eviction: %v", name, err)
		}
	}
	if r.Resident() > r.Budget() {
		t.Errorf("resident %d exceeds budget %d", r.Resident(), r.Budget())
	}
}

func TestRegistryRejectsOversizedIndex(t *testing.T) {
	idx := buildIndex(t, 5, 2000)
	r := NewRegistry(indexBytes(idx) / 2)
	if err := r.Add("g", idx); err == nil {
		t.Fatal("index larger than the whole budget accepted")
	}
	if r.Len() != 0 {
		t.Error("failed Add left residue")
	}
}

func TestRegistryList(t *testing.T) {
	r := NewRegistry(0)
	r.Add("zeta", buildIndex(t, 6, 400))
	r.Add("alpha", buildIndex(t, 7, 600))
	r.Get("alpha")
	list := r.List()
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "zeta" {
		t.Fatalf("List: %+v", list)
	}
	if list[0].Bases != 600 || list[0].Queries != 1 || list[1].Queries != 0 {
		t.Errorf("List details: %+v", list)
	}
}

// TestRegistryConcurrency exercises the RWMutex paths under the race
// detector: concurrent Gets (read path) against Add/Remove (write path).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry(0)
	base := buildIndex(t, 8, 500)
	r.Add("stable", base)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					r.Get("stable")
				case 1:
					name := fmt.Sprintf("t%d", w)
					if err := r.Add(name, base); err == nil {
						r.Remove(name)
					}
				case 2:
					r.List()
				case 3:
					r.Resident()
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := r.Get("stable"); err != nil {
		t.Fatalf("stable index lost: %v", err)
	}
}

// TestRegistryReloadAppendedContainer covers the hot-reload path: a
// sharded container is registered, grown on disk with the streaming
// append builder, and reloaded — the entry must show the new shard
// count and the LRU cost accounting must grow with the container.
func TestRegistryReloadAppendedContainer(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randomDNA(rng, 4000)
	tail := randomDNA(rng, 2500)
	path := filepath.Join(t.TempDir(), "g.km")

	sb, err := bwtmatch.NewStreamBuilder(path,
		bwtmatch.WithShardSize(1024), bwtmatch.WithMaxPatternLen(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Write(base); err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(0)
	if _, err := r.LoadFile("g", path); err != nil {
		t.Fatal(err)
	}
	before := r.List()
	if len(before) != 1 || before[0].Shards != 4 || before[0].Bases != 4000 {
		t.Fatalf("initial List: %+v", before)
	}
	residentBefore := r.Resident()

	ab, err := bwtmatch.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ab.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := ab.Close(); err != nil {
		t.Fatal(err)
	}

	// Bump the query counter so we can check it survives the swap.
	if _, err := r.Get("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReloadFile("g", path); err != nil {
		t.Fatal(err)
	}
	after := r.List()
	if len(after) != 1 || after[0].Shards != 7 || after[0].Bases != 6500 {
		t.Fatalf("reloaded List: %+v", after)
	}
	if after[0].Queries != 1 {
		t.Errorf("query counter lost across reload: %+v", after[0])
	}
	if r.Resident() <= residentBefore {
		t.Errorf("resident cost did not grow with the container: %d -> %d", residentBefore, r.Resident())
	}
	if r.Len() != 1 {
		t.Errorf("Replace duplicated the entry: %d", r.Len())
	}

	// Replace on a fresh name degrades to Add.
	if err := r.Replace("h", buildIndex(t, 3, 700)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("Replace on fresh name: len=%d", r.Len())
	}
}

// buildRelativePair builds a base and n relative tenants at ~1%
// divergence from it.
func buildRelativeTenants(t *testing.T, seed int64, bases, n int) (*bwtmatch.Index, []*bwtmatch.RelativeIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	baseText := randomDNA(rng, bases)
	base, err := bwtmatch.New(baseText)
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]*bwtmatch.RelativeIndex, n)
	for i := range tenants {
		tenText := append([]byte(nil), baseText...)
		for j := 0; j < bases/100; j++ {
			tenText[rng.Intn(len(tenText))] = "acgt"[rng.Intn(4)]
		}
		tenants[i], err = bwtmatch.NewRelative(base, tenText)
		if err != nil {
			t.Fatal(err)
		}
	}
	return base, tenants
}

// TestRegistryRelativeSharing checks the multi-tenant accounting: N
// tenants of one base cost one base plus N deltas, and /v1/indexes
// reports the split.
func TestRegistryRelativeSharing(t *testing.T) {
	base, tenants := buildRelativeTenants(t, 21, 2000, 3)
	r := NewRegistry(0)
	for i, tx := range tenants {
		if err := r.Add(fmt.Sprintf("t%d", i), tx); err != nil {
			t.Fatal(err)
		}
	}
	// A base built in process is charged whole: its BWT structures,
	// Locate samples and packed text.
	if whole := int64(base.SizeBytes() + (base.Len()+31)/32*8); indexBytes(base) != whole || whole <= baseOnlyBytes(base.Len()) {
		t.Fatalf("in-process base charged %d, want it whole: %d", indexBytes(base), whole)
	}
	want := indexBytes(base)
	for _, tx := range tenants {
		want += int64(tx.DeltaBytes())
	}
	if r.Resident() != want {
		t.Fatalf("resident %d, want base+deltas %d (base charged once)", r.Resident(), want)
	}
	if _, ok := r.SharedBase(tenants[0].BaseFingerprint()); !ok {
		t.Fatal("base not shared")
	}
	list := r.List()
	if len(list) != 3 {
		t.Fatalf("List: %+v", list)
	}
	for _, info := range list {
		if info.Base == "" || info.DeltaBytes == 0 || info.SharedBaseBytes != indexBytes(base) {
			t.Fatalf("tenant info missing relative accounting: %+v", info)
		}
		if info.Base != list[0].Base {
			t.Fatalf("tenants disagree on base ID: %+v", list)
		}
	}
	relBases, relTenants := r.relativeSnapshot()
	if len(relBases) != 1 || relBases[0].tenants != 3 {
		t.Fatalf("relativeSnapshot bases: %+v", relBases)
	}
	if len(relTenants) != 3 {
		t.Fatalf("relativeSnapshot tenants: %+v", relTenants)
	}
}

// TestRegistryRelativeEviction checks base pinning: evicting or
// removing tenants releases the base only when the last one goes, and
// a base with live tenants survives LRU pressure that evicts its
// sibling tenants.
func TestRegistryRelativeEviction(t *testing.T) {
	base, tenants := buildRelativeTenants(t, 22, 2000, 3)
	baseCost := indexBytes(base)
	// The incoming tenant must be the smallest delta so that evicting
	// one sibling is enough — a deterministic single-victim eviction.
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].DeltaBytes() > tenants[j].DeltaBytes() })
	t0, t1, t2 := tenants[0], tenants[1], tenants[2]
	// Budget: base + two deltas, nothing spare for a third.
	budget := baseCost + int64(t0.DeltaBytes()) + int64(t1.DeltaBytes())
	r := NewRegistry(budget)
	var evicted []string
	r.onEvict = func(name string) { evicted = append(evicted, name) }
	if err := r.Add("t0", t0); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("t1", t1); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 0 {
		t.Fatalf("unexpected evictions: %v", evicted)
	}
	if _, err := r.Get("t0"); err != nil { // t1 becomes LRU
		t.Fatal(err)
	}
	// A third tenant of the same base forces eviction of tenant t1 —
	// only tenant entries are LRU victims; the base must stay resident
	// because t0 (and now t2) still hold it.
	if err := r.Add("t2", t2); err != nil {
		t.Fatal(err)
	}
	if len(evicted) == 0 || evicted[0] != "t1" {
		t.Fatalf("evicted %v, want t1 first", evicted)
	}
	if _, ok := r.SharedBase(t0.BaseFingerprint()); !ok {
		t.Fatal("base freed while tenants still live")
	}
	relBases, _ := r.relativeSnapshot()
	if len(relBases) != 1 || relBases[0].tenants != 2 {
		t.Fatalf("tenant refcount after eviction: %+v", relBases)
	}
	// Removing the remaining tenants frees the base exactly at the last
	// release.
	if !r.Remove("t0") {
		t.Fatal("t0 missing")
	}
	if _, ok := r.SharedBase(t0.BaseFingerprint()); !ok {
		t.Fatal("base freed while t2 still lives")
	}
	before := r.Resident()
	if !r.Remove("t2") {
		t.Fatal("t2 missing")
	}
	if _, ok := r.SharedBase(t0.BaseFingerprint()); ok {
		t.Fatal("base still resident after last tenant removed")
	}
	if got := before - r.Resident(); got != baseCost+int64(t2.DeltaBytes()) {
		t.Fatalf("removing last tenant freed %d bytes, want delta+base %d", got, baseCost+int64(t2.DeltaBytes()))
	}
	if r.Resident() != 0 || r.Len() != 0 {
		t.Fatalf("registry not empty: resident=%d len=%d", r.Resident(), r.Len())
	}
}

// baseOnlyBytes is what a base resolved from a container's path hint
// holds, computed from its length at the default checkpoint spacing of
// 32 rows: its n+1 rows at 2 bits each in 64-bit words, and four int32
// counts per checkpoint row.
func baseOnlyBytes(n int) int64 {
	rows := int64(n) + 1
	return (rows+31)/32*8 + (rows/32+1)*4*4
}

// TestRegistryLoadFileSharedBase checks that loading sibling relative
// containers from disk shares one in-memory base via the fingerprint
// lookup, that the registry charges that base only the 2-bit BWT and
// occ checkpoints it keeps, and that the base refuses every search,
// save and text path.
func TestRegistryLoadFileSharedBase(t *testing.T) {
	dir := t.TempDir()
	base, tenants := buildRelativeTenants(t, 25, 1500, 2)
	basePath := filepath.Join(dir, "base.km")
	if err := base.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	for i, tx := range tenants {
		tx.SetBasePath("base.km")
		if err := tx.SaveFile(filepath.Join(dir, fmt.Sprintf("t%d.km", i))); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRegistry(0)
	m0, err := r.LoadFile("t0", filepath.Join(dir, "t0.km"))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := r.LoadFile("t1", filepath.Join(dir, "t1.km"))
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := m0.(*bwtmatch.RelativeIndex), m1.(*bwtmatch.RelativeIndex)
	if r0.Base() != r1.Base() {
		t.Fatal("tenants loaded separate base copies")
	}
	relBases, _ := r.relativeSnapshot()
	if len(relBases) != 1 || relBases[0].tenants != 2 {
		t.Fatalf("base not shared across LoadFile: %+v", relBases)
	}

	// Both tenants answer one search per method, Seed rebuilding each
	// tenant's own text.
	methods := []bwtmatch.Method{bwtmatch.AlgorithmA, bwtmatch.BWTBaseline, bwtmatch.STree,
		bwtmatch.AlgorithmANoPhi, bwtmatch.Seed}
	pattern, err := r0.RefSeq(bwtmatch.Ref{Start: 200, Len: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, rx := range []*bwtmatch.RelativeIndex{r0, r1} {
		want, _, err := rx.SearchMethodTraced(pattern, 2, bwtmatch.AlgorithmA, nil)
		if err != nil || rx == r0 && len(want) == 0 {
			t.Fatalf("tenant A(): %v (%v)", want, err)
		}
		for _, m := range methods {
			got, _, err := rx.SearchMethodTraced(pattern, 2, m, nil)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("tenant %v: %v (%v), want %v", m, got, err, want)
			}
		}
	}
	baseBytes := baseOnlyBytes(base.Len())
	if got, want := r.Resident(), baseBytes+int64(r0.DeltaBytes()+r1.DeltaBytes()); got != want {
		t.Fatalf("resident %d, want BWT plus checkpoints %d plus the deltas: %d", got, baseBytes, want)
	}
	// No text, no Locate samples and no marks: the base
	// counts nothing beyond its BWT and checkpoints, and no text path
	// answers on it.
	b := r0.Base()
	if int64(b.SizeBytes()) != baseBytes || int64(b.ResidentBytes()) != baseBytes {
		t.Fatalf("base SizeBytes %d, ResidentBytes %d, want %d", b.SizeBytes(), b.ResidentBytes(), baseBytes)
	}
	for _, info := range r.List() {
		if info.SharedBaseBytes != baseBytes {
			t.Fatalf("shared_base_bytes %d, want %d", info.SharedBaseBytes, baseBytes)
		}
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, bwtmatch.ErrBaseOnly) {
			t.Errorf("base %s: err %v, want ErrBaseOnly", what, err)
		}
	}
	for _, m := range methods {
		_, _, err := b.SearchMethodTraced(pattern, 1, m, nil)
		refused(m.String(), err)
	}
	var buf bytes.Buffer
	refused("Save", b.Save(&buf))
	if buf.Len() != 0 {
		t.Errorf("base Save wrote %d bytes", buf.Len())
	}
	_, err = b.RefSeq(bwtmatch.Ref{Start: 0, Len: 10})
	refused("RefSeq", err)
	res := b.MapAllContext(context.Background(), []bwtmatch.Query{{Pattern: pattern, K: 1}}, bwtmatch.AlgorithmA, 1)
	refused("MapAllContext", res[0].Err)
}
