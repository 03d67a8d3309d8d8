package fmindex

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"bwtmatch/internal/alphabet"
)

func mustEncode(t testing.TB, s string) []byte {
	t.Helper()
	ranks, err := alphabet.Encode([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return ranks
}

func randomRanks(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(1 + rng.Intn(4))
	}
	return t
}

// naiveCount counts exact occurrences of pattern in text by scanning.
func naiveCount(text, pattern []byte) int {
	if len(pattern) == 0 {
		return len(text) + 1
	}
	c := 0
	for i := 0; i+len(pattern) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pattern)], pattern) {
			c++
		}
	}
	return c
}

func naivePositions(text, pattern []byte) []int32 {
	var out []int32
	for i := 0; i+len(pattern) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pattern)], pattern) {
			out = append(out, int32(i))
		}
	}
	return out
}

func TestBuildRejectsSentinel(t *testing.T) {
	if _, err := Build([]byte{alphabet.A, alphabet.Sentinel}, DefaultOptions()); err == nil {
		t.Fatal("Build accepted sentinel in text")
	}
}

func TestBuildRejectsBadOptions(t *testing.T) {
	if _, err := Build([]byte{alphabet.A}, Options{OccRate: -1, SARate: 2}); err == nil {
		t.Fatal("Build accepted negative OccRate")
	}
}

func TestPaperBWTExample(t *testing.T) {
	// Paper §III-A: s = acagaca$ has BWT(s) = acg$caaa.
	idx, err := Build(mustEncode(t, "acagaca"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := alphabet.Decode(idx.BWT())
	if want := []byte("acg$caaa"); !bytes.Equal(got, want) {
		t.Fatalf("BWT(acagaca$) = %q, want %q", got, want)
	}
}

func TestPaperSearchExample(t *testing.T) {
	// Paper §III-A: searching r = aca in s = acagaca$ finds 2 occurrences.
	idx, err := Build(mustEncode(t, "acagaca"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	iv := idx.Search(mustEncode(t, "aca"))
	if iv.Len() != 2 {
		t.Fatalf("Count(aca) = %d, want 2", iv.Len())
	}
	pos := idx.Locate(iv, nil)
	sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
	if len(pos) != 2 || pos[0] != 0 || pos[1] != 4 {
		t.Fatalf("Locate = %v, want [0 4]", pos)
	}
}

func TestCountAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 60; trial++ {
		text := randomRanks(rng, 1+rng.Intn(400))
		idx, err := Build(text, Options{OccRate: 1 + rng.Intn(8), SARate: 1 + rng.Intn(8)})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 30; q++ {
			pat := randomRanks(rng, 1+rng.Intn(8))
			if got, want := idx.Count(pat), naiveCount(text, pat); got != want {
				t.Fatalf("Count(%v in %v) = %d, want %d", pat, text, got, want)
			}
		}
	}
}

func TestLocateAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		text := randomRanks(rng, 1+rng.Intn(300))
		idx, err := Build(text, Options{OccRate: 4, SARate: 1 + rng.Intn(10)})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			pat := randomRanks(rng, 1+rng.Intn(6))
			got := idx.Locate(idx.Search(pat), nil)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := naivePositions(text, pat)
			if len(got) != len(want) {
				t.Fatalf("Locate count %d want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Locate = %v, want %v", got, want)
				}
			}
		}
	}
}

func TestStepAllMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	text := randomRanks(rng, 2000)
	idx, err := Build(text, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var all [alphabet.Bases]Interval
	for q := 0; q < 500; q++ {
		lo := int32(rng.Intn(idx.N() + 1))
		hi := lo + int32(rng.Intn(idx.N()+1-int(lo)))
		iv := Interval{lo, hi + 1}
		idx.StepAll(iv, &all)
		for x := byte(1); x <= alphabet.T; x++ {
			if got, want := all[x-1], idx.Step(x, iv); got != want {
				t.Fatalf("StepAll[%d] = %v, Step = %v", x, got, want)
			}
		}
	}
}

func TestSearchEmptyPattern(t *testing.T) {
	idx, _ := Build(mustEncode(t, "acgt"), DefaultOptions())
	if iv := idx.Search(nil); iv != idx.Full() {
		t.Errorf("Search(empty) = %v, want full interval", iv)
	}
}

func TestSearchAbsentPattern(t *testing.T) {
	idx, _ := Build(mustEncode(t, "aaaa"), DefaultOptions())
	if iv := idx.Search(mustEncode(t, "ttt")); !iv.Empty() {
		t.Errorf("Search(ttt) = %v, want empty", iv)
	}
	// Stepping from an empty interval must stay empty.
	if iv := idx.Step(alphabet.A, Interval{3, 3}); !iv.Empty() {
		t.Errorf("Step from empty = %v", iv)
	}
}

func TestSearchReversedIsSearchOfReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	idx, _ := Build(randomRanks(rng, 500), DefaultOptions())
	for trial := 0; trial < 100; trial++ {
		p := randomRanks(rng, rng.Intn(8))
		want := idx.Search(alphabet.Reverse(slices.Clone(p)))
		if got := idx.SearchReversed(p); got != want {
			t.Fatalf("SearchReversed(%v) = %v, Search of the reverse = %v", p, got, want)
		}
	}
}

func TestOccRateVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	text := randomRanks(rng, 1000)
	base, _ := Build(text, Options{OccRate: 1, SARate: 4})
	for _, rate := range []int{2, 4, 16, 64, 128} {
		idx, err := Build(text, Options{OccRate: rate, SARate: 4})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 50; q++ {
			pat := randomRanks(rng, 1+rng.Intn(10))
			if idx.Count(pat) != base.Count(pat) {
				t.Fatalf("OccRate=%d disagrees with rate 1", rate)
			}
		}
		if idx.SizeBytes() >= base.SizeBytes() {
			t.Errorf("OccRate=%d not smaller than rate 1 (%d vs %d)",
				rate, idx.SizeBytes(), base.SizeBytes())
		}
	}
}

func TestQuickCountInvariant(t *testing.T) {
	f := func(seed int64, n8, m8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randomRanks(rng, 1+int(n8))
		pat := randomRanks(rng, 1+int(m8)%10)
		idx, err := Build(text, DefaultOptions())
		if err != nil {
			return false
		}
		return idx.Count(pat) == naiveCount(text, pat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRankCorrespondence(t *testing.T) {
	// Paper property (1): rk_F(e) = rk_L(e) for every element. Verified by
	// checking that LF-walking from row 0 reproduces the reversed text.
	text := mustEncode(t, "acagaca")
	idx, _ := Build(text, DefaultOptions())
	row := int32(0) // row of the sentinel-prefixed rotation
	rebuilt := make([]byte, 0, idx.N())
	for i := 0; i < idx.N(); i++ {
		rebuilt = append(rebuilt, idx.bwt[row])
		row = idx.lfStep(row)
	}
	alphabet.Reverse(rebuilt)
	if !bytes.Equal(rebuilt, text) {
		t.Fatalf("LF walk rebuilt %v, want %v", rebuilt, text)
	}
}

func BenchmarkBackwardSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	text := randomRanks(rng, 1<<20)
	idx, _ := Build(text, DefaultOptions())
	pats := make([][]byte, 64)
	for i := range pats {
		p := rng.Intn(len(text) - 100)
		pats[i] = text[p : p+100]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Count(pats[i%len(pats)])
	}
}
