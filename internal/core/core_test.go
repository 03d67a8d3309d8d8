package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/naive"
)

// find runs one search on a fresh Scratch.
func find(s *Searcher, pattern []byte, k int, method Method) ([]Match, Stats, error) {
	return s.FindScratch(NewScratch(), nil, pattern, k, method, nil)
}

func randomRanks(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(1 + rng.Intn(4))
	}
	return t
}

// mutate copies a window of text and flips d random positions, giving a
// pattern guaranteed to occur with at most d mismatches.
func mutate(rng *rand.Rand, text []byte, pos, m, d int) []byte {
	p := append([]byte(nil), text[pos:pos+m]...)
	for i := 0; i < d; i++ {
		q := rng.Intn(m)
		p[q] = byte(1 + rng.Intn(4))
	}
	return p
}

func matchesEqual(t *testing.T, got []Match, want []int32, text, pattern []byte, k int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("found %d matches, want %d (text=%v pattern=%v k=%d)\ngot: %v\nwant: %v",
			len(got), len(want), text, pattern, k, got, want)
	}
	for i := range got {
		if got[i].Pos != want[i] {
			t.Fatalf("match %d at %d, want %d", i, got[i].Pos, want[i])
		}
		// Verify the reported mismatch count directly.
		d := naive.Hamming(text[got[i].Pos:int(got[i].Pos)+len(pattern)], pattern, len(pattern))
		if d != got[i].Mismatches {
			t.Fatalf("match at %d reports %d mismatches, actual %d", got[i].Pos, got[i].Mismatches, d)
		}
	}
}

func TestPaperIntroExample(t *testing.T) {
	// §I: r = aaaaacaaac occurs in s = ccacacagaagcc at (1-based) position
	// 3 with 4 mismatches.
	text, _ := alphabet.Encode([]byte("ccacacagaagcc"))
	pattern, _ := alphabet.Encode([]byte("aaaaacaaac"))
	s, err := NewSearcher(text, fmindex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{MethodSTree, MethodSTreePhi, MethodMTree, MethodMTreeNoPhi} {
		got, _, err := find(s, pattern, 4, method)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Find(text, pattern, 4)
		matchesEqual(t, got, want, text, pattern, 4)
		has2 := false
		for _, mt := range got {
			if mt.Pos == 2 {
				has2 = true
			}
		}
		if !has2 {
			t.Fatalf("%v: missing the paper's occurrence at position 2: %v", method, got)
		}
	}
}

func TestPaperSTreeExample(t *testing.T) {
	// §IV-A: r = tcaca against s = acagaca with k = 2 finds occurrences
	// s[1..5] and s[3..7] (1-based), i.e. 0-based positions 0 and 2.
	text, _ := alphabet.Encode([]byte("acagaca"))
	pattern, _ := alphabet.Encode([]byte("tcaca"))
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	for _, method := range []Method{MethodSTree, MethodSTreePhi, MethodMTree, MethodMTreeNoPhi} {
		got, _, err := find(s, pattern, 2, method)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Pos != 0 || got[1].Pos != 2 {
			t.Fatalf("%v: got %v, want positions 0 and 2", method, got)
		}
		if got[0].Mismatches != 2 || got[1].Mismatches != 2 {
			t.Fatalf("%v: mismatch counts %v, want 2 and 2", method, got)
		}
	}
}

func TestAllMethodsAgainstOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		n := 50 + rng.Intn(400)
		text := randomRanks(rng, n)
		s, err := NewSearcher(text, fmindex.Options{OccRate: 1 + rng.Intn(6), SARate: 1 + rng.Intn(6)})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 8; q++ {
			m := 1 + rng.Intn(20)
			if m > n {
				m = n
			}
			k := rng.Intn(4)
			var pattern []byte
			if rng.Intn(2) == 0 && n > m {
				pattern = mutate(rng, text, rng.Intn(n-m), m, rng.Intn(k+1))
			} else {
				pattern = randomRanks(rng, m)
			}
			want := naive.Find(text, pattern, k)
			for _, method := range []Method{MethodSTree, MethodSTreePhi, MethodMTree, MethodMTreeNoPhi} {
				got, _, err := find(s, pattern, k, method)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, got, want, text, pattern, k)
			}
		}
	}
}

func TestMTreeAgainstOracleRepetitiveText(t *testing.T) {
	// Repetitive texts maximize interval reuse, stressing the derivation
	// machinery (memo hits, fallbacks).
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 30; trial++ {
		unit := randomRanks(rng, 2+rng.Intn(12))
		var text []byte
		for len(text) < 200+rng.Intn(200) {
			text = append(text, unit...)
			if rng.Intn(4) == 0 { // sprinkle noise between repeats
				text = append(text, byte(1+rng.Intn(4)))
			}
		}
		s, _ := NewSearcher(text, fmindex.DefaultOptions())
		for q := 0; q < 6; q++ {
			m := 2 + rng.Intn(24)
			if m > len(text) {
				m = len(text)
			}
			k := rng.Intn(5)
			pattern := mutate(rng, text, rng.Intn(len(text)-m+1), m, rng.Intn(k+2))
			want := naive.Find(text, pattern, k)
			got, stats, err := find(s, pattern, k, MethodMTree)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, got, want, text, pattern, k)
			if stats.MTreeLeaves == 0 && len(want) > 0 {
				t.Fatal("no leaves recorded despite matches")
			}
		}
	}
}

func TestMTreeQuick(t *testing.T) {
	f := func(seed int64, n16 uint16, m8, k8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + int(n16)%300
		text := randomRanks(rng, n)
		m := 1 + int(m8)%15
		k := int(k8) % 4
		pattern := randomRanks(rng, m)
		s, err := NewSearcher(text, fmindex.DefaultOptions())
		if err != nil {
			return false
		}
		got, _, err := find(s, pattern, k, MethodMTree)
		if err != nil {
			return false
		}
		want := naive.Find(text, pattern, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Pos != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestKZeroIsExactMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	text := randomRanks(rng, 500)
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	for q := 0; q < 20; q++ {
		p := rng.Intn(480)
		pattern := text[p : p+12]
		for _, method := range []Method{MethodSTree, MethodSTreePhi, MethodMTree, MethodMTreeNoPhi} {
			got, _, err := find(s, pattern, 0, method)
			if err != nil {
				t.Fatal(err)
			}
			want := naive.Find(text, pattern, 0)
			matchesEqual(t, got, want, text, pattern, 0)
		}
	}
}

func TestKAtLeastM(t *testing.T) {
	// k >= m: every window qualifies.
	rng := rand.New(rand.NewSource(54))
	text := randomRanks(rng, 40)
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	pattern := randomRanks(rng, 3)
	for _, method := range []Method{MethodSTree, MethodMTree} {
		got, _, err := find(s, pattern, 3, method)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(text)-len(pattern)+1 {
			t.Fatalf("%v: %d matches, want %d", method, len(got), len(text)-len(pattern)+1)
		}
	}
}

func TestFindValidation(t *testing.T) {
	text := []byte{1, 2, 3, 4}
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	if _, _, err := find(s, nil, 1, MethodMTree); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, _, err := find(s, []byte{0}, 1, MethodMTree); err == nil {
		t.Error("sentinel in pattern accepted")
	}
	if _, _, err := find(s, []byte{1}, -1, MethodMTree); err == nil {
		t.Error("negative k accepted")
	}
	if _, _, err := find(s, []byte{1}, 1, Method(99)); err == nil {
		t.Error("unknown method accepted")
	}
	got, _, err := find(s, []byte{1, 2, 3, 4, 1}, 1, MethodMTree)
	if err != nil || got != nil {
		t.Errorf("pattern longer than text: got %v, err %v", got, err)
	}
}

func TestNewSearcherFromIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	text := randomRanks(rng, 300)
	s1, err := NewSearcher(text, fmindex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSearcherFromIndex(s1.Index(), s1.N())
	if s2.N() != len(text) {
		t.Fatalf("N = %d", s2.N())
	}
	pattern := mutate(rng, text, 50, 20, 1)
	a, _, err := find(s1, pattern, 2, MethodMTree)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := find(s2, pattern, 2, MethodMTree)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("wrapped searcher disagrees: %d vs %d", len(a), len(b))
	}
}

func TestMethodString(t *testing.T) {
	if MethodSTreePhi.String() != "bwt" || MethodMTree.String() != "a" {
		t.Error("Method.String mismatch with paper naming")
	}
	if Method(42).String() == "" {
		t.Error("unknown method string empty")
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	text := randomRanks(rng, 3000)
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	pattern := mutate(rng, text, 100, 30, 2)
	_, stats, err := find(s, pattern, 3, MethodMTree)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StepCalls == 0 || stats.Nodes == 0 || stats.MTreeLeaves == 0 {
		t.Errorf("stats look empty: %+v", stats)
	}
	_, pstats, _ := find(s, pattern, 3, MethodSTreePhi)
	if pstats.StepCalls == 0 {
		t.Errorf("phi stats empty: %+v", pstats)
	}
}

func TestPhiPrunesButPreservesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	text := randomRanks(rng, 5000)
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	// A random (non-planted) pattern has absent substrings, activating φ.
	pattern := randomRanks(rng, 40)
	k := 3
	plain, pstats, _ := find(s, pattern, k, MethodSTree)
	pruned, qstats, _ := find(s, pattern, k, MethodSTreePhi)
	if len(plain) != len(pruned) {
		t.Fatalf("phi changed results: %d vs %d", len(plain), len(pruned))
	}
	if qstats.StepCalls > pstats.StepCalls {
		t.Errorf("phi did not reduce work: %d > %d", qstats.StepCalls, pstats.StepCalls)
	}
}

func TestMTreeDoesLessBWTWorkOnRepetitiveText(t *testing.T) {
	// On a highly repetitive target the memo must pay off in rank work.
	rng := rand.New(rand.NewSource(58))
	unit := randomRanks(rng, 10)
	var text []byte
	for i := 0; i < 400; i++ {
		text = append(text, unit...)
	}
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	pattern := mutate(rng, text, 30, 40, 2)
	_, brute, _ := find(s, pattern, 3, MethodSTree)
	_, atree, _ := find(s, pattern, 3, MethodMTree)
	if atree.StepCalls >= brute.StepCalls {
		t.Errorf("Algorithm A did not save BWT work: %d vs %d (memo hits %d)",
			atree.StepCalls, brute.StepCalls, atree.MemoHits)
	}
}
