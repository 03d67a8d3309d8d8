package bwtmatch

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/core"
	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/naive"
)

// checkPackedOnly requires x to hold its target packed at 2 bits per
// base, or not at all for a relative tenant whose text no text path has
// rebuilt.
func checkPackedOnly(t *testing.T, name string, x *Index) {
	t.Helper()
	if x.textFn != nil && x.text == nil {
		return
	}
	if want := (x.Len() + 31) / 32 * 8; x.text == nil || x.text.SizeBytes() != want {
		t.Errorf("%s: text is not packed in %d bytes", name, want)
	}
}

// TestTextResidency takes every index layout through the production
// route — build, load, a relative tenant, every BWT-path method and
// Seed, save, RefSeq, the sharded invariant check and a stream append —
// and requires that no index then holds its target at a byte per base.
func TestTextResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(2101))
	dir := t.TempDir()
	target := randomDNA(rng, 5000)
	text, _ := alphabet.Encode(target)

	built, err := NewRefs([]Reference{{Name: "chr1", Seq: target[:2000]}, {Name: "chr2", Seq: target[2000:]}})
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "base.idx")
	if err := built.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	tenantText := mutateDNA(rng, target, 0.02)
	tenantRanks, _ := alphabet.Encode(tenantText)
	rx, err := NewRelative(loaded, tenantText)
	if err != nil {
		t.Fatal(err)
	}
	rx.SetBasePath(basePath)
	relPath := filepath.Join(dir, "tenant.rel")
	if err := rx.SaveFile(relPath); err != nil {
		t.Fatal(err)
	}
	tenant, err := LoadRelativeFile(relPath, loaded)
	if err != nil {
		t.Fatal(err)
	}
	shPath := filepath.Join(dir, "sharded.idx")
	sb, err := NewStreamBuilder(shPath, WithShardSize(1500), WithMaxPatternLen(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Write(target[:3500]); err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	ab, err := OpenAppend(shPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ab.Write(target[3500:]); err != nil {
		t.Fatal(err)
	}
	if err := ab.Close(); err != nil {
		t.Fatal(err)
	}
	sh, err := LoadShardedFile(shPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if err := sh.LoadAll(); err != nil {
		t.Fatal(err)
	}

	layouts := []struct {
		name string
		m    Matcher
		text []byte
	}{
		{"built", built, text},
		{"loaded", loaded, text},
		{"tenant", tenant, tenantRanks},
		{"sharded", sh, text},
	}
	for q := 0; q < 12; q++ {
		m, k := 20+rng.Intn(40), rng.Intn(4)
		for _, l := range layouts {
			p := rng.Intn(len(l.text) - m)
			pattern := alphabet.Decode(l.text[p : p+m])
			pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
			pr, _ := alphabet.Encode(pattern)
			want := oracleMatches(l.text, pr, k)
			for _, method := range append(slices.Clone(bwtMethods), Seed) {
				got, _, err := SearchMethod(l.m, pattern, k, method)
				if err != nil {
					t.Fatalf("%s %v: %v", l.name, method, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s %v: %v, want %v", l.name, method, got, want)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, r := range loaded.Refs() {
		if got, err := loaded.RefSeq(r); err != nil || !bytes.Equal(got, target[r.Start:r.Start+r.Len]) {
			t.Fatalf("RefSeq(%s) differs from the reference", r.Name)
		}
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	checkPackedOnly(t, "built", built)
	checkPackedOnly(t, "loaded", loaded)
	checkPackedOnly(t, "tenant", tenant.Index)
	for i := range sh.shards {
		checkPackedOnly(t, "shard", sh.shards[i].idx)
	}
}

// oracleMatches is naive.Find with each match's mismatch count.
func oracleMatches(text, pattern []byte, k int) []Match {
	var out []Match
	for _, p := range naive.Find(text, pattern, k) {
		out = append(out, Match{Pos: int(p), Mismatches: naive.Hamming(text[p:int(p)+len(pattern)], pattern, len(pattern))})
	}
	return out
}

// TestSearchLocateFault clears the one Locate sample an exact search
// needs, as a broken rank layer would lose it: every BWT-path method and
// Seed must return the error instead of walking on.
func TestSearchLocateFault(t *testing.T) {
	const n, p, m = 3000, 100, 40
	target := randomDNA(rand.New(rand.NewSource(2102)), n)
	idx, err := New(target)
	if err != nil {
		t.Fatal(err)
	}
	// The index is over the reversed target, sampled at every 16th
	// position: the match at p starts at n-p-m there, and its Locate
	// walk stops at the sample at or below that.
	fm := idx.searcher.Index()
	sa, err := fm.Locate(fmindex.Interval{Lo: 0, Hi: n + 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := int32(n - p - m)
	broken := &Index{
		text:     idx.text,
		searcher: core.NewSearcherFromIndex(fm.WithoutSample(int32(slices.Index(sa, q-q%16))), n),
	}
	pattern := target[p : p+m]
	for _, method := range append(slices.Clone(bwtMethods), Seed) {
		if _, _, err := SearchMethod(broken, pattern, 0, method); !errors.Is(err, fmindex.ErrLocate) {
			t.Errorf("%v: err %v, want ErrLocate", method, err)
		}
	}
	if _, err := Search(broken, pattern, 0); !errors.Is(err, fmindex.ErrLocate) {
		t.Errorf("Search: err %v, want ErrLocate", err)
	}
}
