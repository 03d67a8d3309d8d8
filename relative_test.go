package bwtmatch

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/naive"
)

// mutateDNA applies roughly rate-fraction point edits (substitution,
// insertion, deletion) to an ascii DNA string.
func mutateDNA(rng *rand.Rand, s []byte, rate float64) []byte {
	const bases = "acgt"
	out := make([]byte, 0, len(s)+16)
	for _, ch := range s {
		if rng.Float64() < rate {
			switch rng.Intn(3) {
			case 0:
				out = append(out, bases[rng.Intn(4)])
			case 1:
				out = append(out, bases[rng.Intn(4)], ch)
			case 2:
			}
		} else {
			out = append(out, ch)
		}
	}
	if len(out) == 0 {
		out = append(out, 'a')
	}
	return out
}

// TestRelativeEquivalence is the public-layer guarantee: every search
// entry point over a relative index returns byte-identical results to a
// standalone build of the same tenant, including the text-path methods
// that must first reconstruct the target from the delta-bridged BWT.
func TestRelativeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	baseText := randomDNA(rng, 2500)
	base, err := New(baseText)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		tenText := mutateDNA(rng, baseText, 0.02)
		standalone, err := New(tenText)
		if err != nil {
			t.Fatal(err)
		}
		// Default relative SARate (32) differs from the standalone default;
		// results must still be byte-identical, only Locate cost differs.
		rel, err := NewRelative(base, tenText)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != standalone.Len() {
			t.Fatalf("Len %d vs %d", rel.Len(), standalone.Len())
		}
		for q := 0; q < 6; q++ {
			m := 6 + rng.Intn(20)
			p := rng.Intn(len(tenText) - m)
			pattern := append([]byte(nil), tenText[p:p+m]...)
			for f := 0; f < rng.Intn(3); f++ {
				pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
			}
			k := rng.Intn(4)
			for _, method := range allMethods {
				got, _, err := SearchMethod(rel, pattern, k, method)
				if err != nil {
					t.Fatalf("%v relative: %v", method, err)
				}
				want, _, err := SearchMethod(standalone, pattern, k, method)
				if err != nil {
					t.Fatalf("%v standalone: %v", method, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v: %d matches vs %d (pattern %q k=%d)",
						method, len(got), len(want), pattern, k)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v match %d: %+v vs %+v", method, i, got[i], want[i])
					}
				}
			}
			gotK, gotBest, err := SearchBest(rel, pattern, k)
			if err != nil {
				t.Fatal(err)
			}
			wantK, wantBest, err := SearchBest(standalone, pattern, k)
			if err != nil {
				t.Fatal(err)
			}
			if gotK != wantK || len(gotBest) != len(wantBest) {
				t.Fatalf("SearchBest: k %d/%d, %d vs %d matches", gotK, wantK, len(gotBest), len(wantBest))
			}
		}
		baseHits, _ := rel.DeltaCounters()
		if baseHits == 0 {
			t.Fatal("no base hits recorded after searching")
		}
	}
}

// TestRelativeSaveLoadFile exercises the relative container end to end:
// path-hint resolution, fingerprint binding, LoadAnyFile dispatch, and
// the standalone-save rejection.
func TestRelativeSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	dir := t.TempDir()
	baseText := randomDNA(rng, 1500)
	tenText := mutateDNA(rng, baseText, 0.02)
	base, err := New(baseText)
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "base.km")
	if err := base.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	rel, err := NewRelative(base, tenText)
	if err != nil {
		t.Fatal(err)
	}
	rel.SetBasePath("base.km") // relative hint: resolved against the container dir
	tenPath := filepath.Join(dir, "tenant.km")
	if err := rel.SaveFile(tenPath); err != nil {
		t.Fatal(err)
	}

	// The delta container must be far smaller than a standalone save.
	ti, err := os.Stat(tenPath)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := os.Stat(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Size() >= bi.Size()/2 {
		t.Fatalf("relative container %d bytes vs base %d — no on-disk win", ti.Size(), bi.Size())
	}

	hdr, ok, err := SniffRelative(tenPath)
	if err != nil || !ok {
		t.Fatalf("SniffRelative: ok=%v err=%v", ok, err)
	}
	if hdr.BasePath != "base.km" || hdr.Len != rel.Len() || hdr.BaseLen != base.Len() {
		t.Fatalf("header %+v", hdr)
	}
	if _, ok, err := SniffRelative(basePath); ok || err != nil {
		t.Fatalf("SniffRelative on mono container: ok=%v err=%v", ok, err)
	}

	pattern := []byte(tenText[5:25])
	want, err := Search(rel, pattern, 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(m Matcher) {
		t.Helper()
		got, err := Search(m, pattern, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d matches after reload, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("match %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	}

	// Explicit base (registry-style sharing).
	rx, err := LoadRelativeFile(tenPath, base)
	if err != nil {
		t.Fatal(err)
	}
	check(rx)
	// Hint-resolved base.
	rx2, err := LoadRelativeFile(tenPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(rx2)
	// LoadAnyFile dispatch.
	any, err := LoadAnyFile(tenPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, isRel := any.(*RelativeIndex); !isRel {
		t.Fatalf("LoadAnyFile returned %T", any)
	}
	check(any)

	// A relative-backed inner index must refuse the standalone save path.
	if err := rx.Index.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("standalone Save accepted a relative-backed index")
	}

	// Fingerprint binding: the wrong base is rejected with ErrFormat.
	other, err := New(randomDNA(rng, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRelativeFile(tenPath, other); !errors.Is(err, ErrFormat) {
		t.Fatalf("wrong base: got %v, want ErrFormat", err)
	}
}

// TestRelativeFixtureLoad loads a base index and a tenant container
// written by an earlier writer (testdata/README.md). The tenant must
// rebuild its target, answer the four BWT-path methods exactly as the
// naive oracle does, and save back to the fixture's bytes: the delta's
// serialized layout, exception characters included, has not moved.
func TestRelativeFixtureLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(17)) // the fixtures' inputs
	baseText := randomDNA(rng, 4000)
	tenText := append(mutateDNA(rng, baseText, 0.02), "gattaca"...)
	text, _ := alphabet.Encode(tenText)

	base, err := LoadFile(filepath.Join("testdata", "relative_base.idx"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "relative_tenant.rel")
	rel, err := LoadRelativeFile(path, base)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rel.packedText(); err != nil || !bytes.Equal(got.Unpack(), text) {
		t.Fatal("tenant fixture rebuilds a different target")
	}
	for q := 0; q < 40; q++ {
		m, k := 8+rng.Intn(20), rng.Intn(4)
		p := rng.Intn(len(tenText) - m)
		pattern := append([]byte(nil), tenText[p:p+m]...)
		for f := 0; f < k; f++ {
			pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		}
		pr, _ := alphabet.Encode(pattern)
		var want []Match
		for _, pos := range naive.Find(text, pr, k) {
			want = append(want, Match{Pos: int(pos), Mismatches: naive.Hamming(text[pos:int(pos)+m], pr, m)})
		}
		for _, method := range bwtMethods {
			got, _, err := SearchMethod(rel, pattern, k, method)
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v (m=%d k=%d): got %v, want %v", method, m, k, got, want)
			}
		}
	}

	fixture, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := rel.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), fixture) {
		t.Fatalf("re-saved tenant is %d bytes and differs from the %d-byte fixture", saved.Len(), len(fixture))
	}
}

// TestRelativeFixtureRebuild builds the tenant fixture again from its
// recorded inputs (testdata/README.md) against the loaded base, with
// the same path hint, and requires the saved container to equal
// relative_tenant.rel byte for byte: the aligner still emits the
// alignment it emitted when the fixture was written.
func TestRelativeFixtureRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17)) // the fixtures' inputs
	baseText := randomDNA(rng, 4000)
	tenText := append(mutateDNA(rng, baseText, 0.02), "gattaca"...)
	base, err := LoadFile(filepath.Join("testdata", "relative_base.idx"))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewRelative(base, tenText)
	if err != nil {
		t.Fatal(err)
	}
	rel.SetBasePath("relative_base.idx")
	var saved bytes.Buffer
	if err := rel.Save(&saved); err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "relative_tenant.rel"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), fixture) {
		t.Fatalf("rebuilt tenant is %d bytes and differs from the %d-byte fixture", saved.Len(), len(fixture))
	}
}

// TestRelativeSwappedBaseRefused opens each of two containers against
// the other's base, after both bases' fingerprints are cached by the
// builds, and requires ErrFormat; each still opens against its own
// base and against a BaseOnly copy of it, which shares the cached
// fingerprint.
func TestRelativeSwappedBaseRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	var bases [2]*Index
	var saved [2][]byte
	for i := range bases {
		text := randomDNA(rng, 3000)
		base, err := New(text)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := NewRelative(base, mutateDNA(rng, text, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rel.Save(&buf); err != nil {
			t.Fatal(err)
		}
		bases[i], saved[i] = base, buf.Bytes()
	}
	for i := range bases {
		own, other := bases[i], bases[1-i]
		if _, err := LoadRelative(bytes.NewReader(saved[i]), other); !errors.Is(err, ErrFormat) {
			t.Fatalf("container %d against the other base: %v, want ErrFormat", i, err)
		}
		if _, err := LoadRelative(bytes.NewReader(saved[i]), other.BaseOnly()); !errors.Is(err, ErrFormat) {
			t.Fatalf("container %d against the other base, base-only: %v, want ErrFormat", i, err)
		}
		for _, b := range []*Index{own, own.BaseOnly()} {
			if _, err := LoadRelative(bytes.NewReader(saved[i]), b); err != nil {
				t.Fatalf("container %d against its own base: %v", i, err)
			}
		}
	}
}

// TestRelativeRefs checks reference-coordinate search over a relative
// multi-reference build.
func TestRelativeRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	chr1 := randomDNA(rng, 400)
	chr2 := randomDNA(rng, 300)
	base, err := NewRefs([]Reference{{Name: "chr1", Seq: chr1}, {Name: "chr2", Seq: chr2}})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewRelativeRefs(base, []Reference{
		{Name: "chr1", Seq: mutateDNA(rng, chr1, 0.01)},
		{Name: "chr2", Seq: chr2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Refs()) != 2 {
		t.Fatalf("refs: %v", rel.Refs())
	}
	got, err := rel.SearchRefs(chr2[10:30], 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range got {
		if m.Ref == "chr2" && m.Pos == 10 && m.Mismatches == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("chr2 occurrence missing: %v", got)
	}
}

// TestRelativizeExisting converts an already-built standalone tenant and
// checks Relativize rejects a relative base.
func TestRelativizeExisting(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	baseText := randomDNA(rng, 900)
	base, err := New(baseText)
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := New(mutateDNA(rng, baseText, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Relativize(base, tenant)
	if err != nil {
		t.Fatal(err)
	}
	if rel.DeltaBytes() >= tenant.SizeBytes() {
		t.Fatalf("delta %d bytes, standalone %d", rel.DeltaBytes(), tenant.SizeBytes())
	}
	if _, err := Relativize(rel.Index, tenant); !errors.Is(err, ErrInput) {
		t.Fatalf("relative base accepted: %v", err)
	}
	if _, err := NewRelative(nil, []byte("acgt")); !errors.Is(err, ErrInput) {
		t.Fatalf("nil base accepted: %v", err)
	}
}

// TestHintedBaseOnly checks what LoadRelativeFile keeps of a base it
// resolves from the container's path hint: no text, reference table or
// Locate samples, a charge of its 2-bit BWT plus its occ checkpoints,
// and a tenant that re-saves byte-identically. A supplied base is kept
// whole, and a base file that a full Load rejects fails the hinted load
// too.
func TestHintedBaseOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2301))
	dir := t.TempDir()
	baseText := randomDNA(rng, 3000)
	base, err := NewRefs([]Reference{{Name: "chr1", Seq: baseText[:1000]}, {Name: "chr2", Seq: baseText[1000:]}})
	if err != nil {
		t.Fatal(err)
	}
	basePath, tenPath := filepath.Join(dir, "base.idx"), filepath.Join(dir, "tenant.rel")
	if err := base.SaveFile(basePath); err != nil {
		t.Fatal(err)
	}
	rel, err := NewRelative(base, mutateDNA(rng, baseText, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	rel.SetBasePath("base.idx")
	if err := rel.SaveFile(tenPath); err != nil {
		t.Fatal(err)
	}

	hinted, err := LoadRelativeFile(tenPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := hinted.Base()
	if b.text != nil || b.textFn != nil || b.refs != nil || !b.searcher.Index().IsRankOnly() {
		t.Fatal("hinted base keeps a text, a reference table or Locate samples")
	}
	rows := base.Len() + 1
	if want := (rows+31)/32*8 + (rows/32+1)*4*4; b.ResidentBytes() != want || b.SizeBytes() != want {
		t.Fatalf("hinted base charged %d (SizeBytes %d), want BWT plus checkpoints %d",
			b.ResidentBytes(), b.SizeBytes(), want)
	}
	if base.ResidentBytes() <= b.ResidentBytes() {
		t.Fatal("a supplied base is charged no more than a base-only one")
	}
	saved, err := os.ReadFile(tenPath)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := hinted.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("a tenant loaded with a hinted base does not re-save byte-identically")
	}
	supplied, err := LoadRelativeFile(tenPath, base)
	if err != nil {
		t.Fatal(err)
	}
	if supplied.Base() != base {
		t.Fatal("a supplied base was replaced")
	}

	var buf bytes.Buffer
	if err := base.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, flipTextBase(buf.Bytes(), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRelativeFile(tenPath, nil); !errors.Is(err, ErrFormat) {
		t.Fatalf("hinted base with a flipped text base: err %v, want ErrFormat", err)
	}
}
