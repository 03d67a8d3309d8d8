package bwtmatch

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
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
