package bwtmatch

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestNewRefsBasics(t *testing.T) {
	idx, err := NewRefs([]Reference{
		{Name: "chr1", Seq: []byte("acgtacgt")},
		{Name: "chr2", Seq: []byte("ttttcagt")},
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := idx.Refs()
	if len(refs) != 2 || refs[0].Name != "chr1" || refs[1].Start != 8 || refs[1].Len != 8 {
		t.Fatalf("refs = %+v", refs)
	}
	if got := idx.RefSeq(refs[1]); !bytes.Equal(got, []byte("ttttcagt")) {
		t.Fatalf("RefSeq = %q", got)
	}
}

func TestNewRefsValidation(t *testing.T) {
	if _, err := NewRefs(nil); err == nil {
		t.Error("no references accepted")
	}
	if _, err := NewRefs([]Reference{{Name: "x", Seq: nil}}); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := NewRefs([]Reference{{Name: "x", Seq: []byte("acN")}}); err == nil {
		t.Error("dirty reference accepted")
	}
}

func TestNewRefsDefaultNames(t *testing.T) {
	idx, _ := NewRefs([]Reference{{Seq: []byte("acgt")}, {Seq: []byte("ttaa")}})
	refs := idx.Refs()
	if refs[0].Name != "ref0" || refs[1].Name != "ref1" {
		t.Fatalf("default names = %+v", refs)
	}
}

func TestSearchRefsDropsBoundarySpans(t *testing.T) {
	// "gtca" occurs only across the chr1|chr2 boundary ("..gt"+"ca..").
	idx, err := NewRefs([]Reference{
		{Name: "chr1", Seq: []byte("aaaagt")},
		{Name: "chr2", Seq: []byte("cattttt")},
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Search(idx, []byte("gtca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 1 {
		t.Fatalf("expected the artifact in flat search, got %v", flat)
	}
	scoped, err := idx.SearchRefs([]byte("gtca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scoped) != 0 {
		t.Fatalf("boundary artifact leaked into SearchRefs: %v", scoped)
	}
}

func TestSearchRefsCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(221))
	chr1 := randomDNA(rng, 400)
	chr2 := randomDNA(rng, 300)
	idx, err := NewRefs([]Reference{{Name: "chr1", Seq: chr1}, {Name: "chr2", Seq: chr2}})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		var src []byte
		var name string
		if rng.Intn(2) == 0 {
			src, name = chr1, "chr1"
		} else {
			src, name = chr2, "chr2"
		}
		m := 20
		p := rng.Intn(len(src) - m)
		pattern := append([]byte(nil), src[p:p+m]...)
		pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		got, err := idx.SearchRefs(pattern, 1)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, g := range got {
			if g.Ref == name && g.Pos == p {
				found = true
			}
			// Verify every reported coordinate against its reference.
			ref := idx.Refs()[0]
			if g.Ref == "chr2" {
				ref = idx.Refs()[1]
			}
			window := idx.RefSeq(ref)[g.Pos : g.Pos+m]
			mism := 0
			for i := range window {
				if window[i] != pattern[i] {
					mism++
				}
			}
			if mism != g.Mismatches {
				t.Fatalf("reported %d mismatches at %s:%d, actual %d", g.Mismatches, g.Ref, g.Pos, mism)
			}
		}
		if !found {
			t.Fatalf("planted window %s:%d not found: %v", name, p, got)
		}
	}
}

func TestSearchRefsRequiresTable(t *testing.T) {
	idx, _ := New([]byte("acgtacgt"))
	if _, err := idx.SearchRefs([]byte("acg"), 0); err == nil {
		t.Error("SearchRefs on a plain index should fail")
	}
	if _, _, ok := idx.Resolve(0, 2); ok {
		t.Error("Resolve on a plain index should report !ok")
	}
}

func TestResolve(t *testing.T) {
	idx, _ := NewRefs([]Reference{
		{Name: "a", Seq: []byte("acgt")},
		{Name: "b", Seq: []byte("ttaacc")},
	})
	cases := []struct {
		pos, length int
		ref         string
		refPos      int
		ok          bool
	}{
		{0, 4, "a", 0, true},
		{3, 1, "a", 3, true},
		{3, 2, "", 0, false}, // crosses a|b
		{4, 6, "b", 0, true},
		{9, 1, "b", 5, true},
		{9, 2, "", 0, false}, // runs past the end
	}
	for _, c := range cases {
		ref, pos, ok := idx.Resolve(c.pos, c.length)
		if ok != c.ok || ref != c.ref || pos != c.refPos {
			t.Errorf("Resolve(%d,%d) = (%q,%d,%v), want (%q,%d,%v)",
				c.pos, c.length, ref, pos, ok, c.ref, c.refPos, c.ok)
		}
	}
}

func TestRefsSurviveSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(222))
	idx, err := NewRefs([]Reference{
		{Name: "chrX", Seq: randomDNA(rng, 200)},
		{Name: "chrY", Seq: randomDNA(rng, 100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Refs()) != 2 || loaded.Refs()[0].Name != "chrX" || loaded.Refs()[1].Len != 100 {
		t.Fatalf("refs after reload = %+v", loaded.Refs())
	}
	pattern := idx.RefSeq(idx.Refs()[1])[10:40]
	a, _ := idx.SearchRefs(pattern, 1)
	b, _ := loaded.SearchRefs(pattern, 1)
	if len(a) != len(b) {
		t.Fatalf("SearchRefs differs after reload")
	}
}
