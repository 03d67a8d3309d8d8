package fmindex

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func reverseCopy(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[len(b)-1-i] = c
	}
	return out
}

// TestBiExtendSynchronized grows random patterns one character at a time
// on a random side and checks both intervals against independent searches
// after every step.
func TestBiExtendSynchronized(t *testing.T) {
	rng := rand.New(rand.NewSource(231))
	for trial := 0; trial < 30; trial++ {
		text := randomRanks(rng, 20+rng.Intn(400))
		bi, err := BuildBi(text, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			iv := bi.Full()
			var pattern []byte
			for step := 0; step < 12 && !iv.Empty(); step++ {
				x := byte(1 + rng.Intn(4))
				if rng.Intn(2) == 0 {
					iv = bi.ExtendLeft(x, iv)
					pattern = append([]byte{x}, pattern...)
				} else {
					iv = bi.ExtendRight(x, iv)
					pattern = append(pattern, x)
				}
				wantF := bi.Fwd().Search(pattern)
				wantR := bi.Rev().Search(reverseCopy(pattern))
				if iv.Empty() {
					if !wantF.Empty() {
						t.Fatalf("bi empty but %v occurs (text=%v)", pattern, text)
					}
					break
				}
				if iv.Fwd != wantF || iv.Rev != wantR {
					t.Fatalf("desync for %v: fwd %v want %v, rev %v want %v (text=%v)",
						pattern, iv.Fwd, wantF, iv.Rev, wantR, text)
				}
			}
		}
	}
}

func TestBiSearchOutward(t *testing.T) {
	rng := rand.New(rand.NewSource(232))
	for trial := 0; trial < 30; trial++ {
		text := randomRanks(rng, 30+rng.Intn(300))
		bi, err := BuildBi(text, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			m := 1 + rng.Intn(15)
			var pattern []byte
			if rng.Intn(2) == 0 && len(text) > m {
				p := rng.Intn(len(text) - m)
				pattern = text[p : p+m]
			} else {
				pattern = randomRanks(rng, m)
			}
			pivot := rng.Intn(m+2) - 1 // may be out of range, exercising the default
			got := bi.SearchOutward(pattern, pivot)
			want := bi.Fwd().Search(pattern)
			if want.Empty() {
				if !got.Empty() {
					t.Fatalf("SearchOutward found absent pattern %v", pattern)
				}
				continue
			}
			if got.Fwd != want {
				t.Fatalf("SearchOutward(%v, %d) = %v, want %v", pattern, pivot, got.Fwd, want)
			}
		}
	}
}

func TestBiEmptyPattern(t *testing.T) {
	bi, _ := BuildBi([]byte{1, 2, 3, 4}, DefaultOptions())
	iv := bi.SearchOutward(nil, 0)
	if iv.Len() != bi.N()+1 {
		t.Fatalf("empty pattern interval %v", iv)
	}
}

func TestBiQuick(t *testing.T) {
	f := func(seed int64, n8, m8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randomRanks(rng, 1+int(n8))
		pattern := randomRanks(rng, 1+int(m8)%12)
		bi, err := BuildBi(text, DefaultOptions())
		if err != nil {
			return false
		}
		got := bi.SearchOutward(pattern, len(pattern)/2)
		want := bi.Fwd().Search(pattern)
		if want.Empty() {
			return got.Empty()
		}
		return got.Fwd == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBiLocateAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	text := randomRanks(rng, 500)
	bi, _ := BuildBi(text, DefaultOptions())
	p := 123
	pattern := text[p : p+10]
	iv := bi.SearchOutward(pattern, 5)
	pos := mustLocate(t, bi.Fwd(), iv.Fwd)
	found := false
	for _, q := range pos {
		if int(q) == p {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted occurrence not located: %v", pos)
	}
}
