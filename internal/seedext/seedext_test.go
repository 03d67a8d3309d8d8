package seedext

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/naive"
)

func randomRanks(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(1 + rng.Intn(4))
	}
	return t
}

func newMatcher(t testing.TB, text []byte) *Matcher {
	t.Helper()
	rev := make([]byte, len(text))
	for i, b := range text {
		rev[len(text)-1-i] = b
	}
	idx, err := fmindex.Build(rev, fmindex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	packed, err := alphabet.Pack(text)
	if err != nil {
		t.Fatal(err)
	}
	return New(idx, packed)
}

func checkAgainstNaive(t *testing.T, s *Matcher, text, pattern []byte, k int) {
	t.Helper()
	got, st, err := s.Find(pattern, k)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Find(text, pattern, k)
	if len(got) != len(want) {
		t.Fatalf("found %d, want %d (pattern %v k=%d)", len(got), len(want), pattern, k)
	}
	for i := range got {
		if got[i].Pos != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
		d := naive.Hamming(text[got[i].Pos:int(got[i].Pos)+len(pattern)], pattern, len(pattern))
		if d != got[i].Mismatches {
			t.Fatalf("pos %d reports %d mismatches, actual %d", got[i].Pos, got[i].Mismatches, d)
		}
	}
	if st.Matches != len(got) {
		t.Fatalf("stats.Matches = %d", st.Matches)
	}
}

func TestAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 50; trial++ {
		text := randomRanks(rng, 50+rng.Intn(500))
		s := newMatcher(t, text)
		for q := 0; q < 8; q++ {
			m := 2 + rng.Intn(30)
			if m > len(text) {
				m = len(text)
			}
			k := rng.Intn(5)
			var pattern []byte
			if rng.Intn(2) == 0 && len(text) > m {
				p := rng.Intn(len(text) - m)
				pattern = append([]byte(nil), text[p:p+m]...)
				for f := 0; f < k; f++ {
					pattern[rng.Intn(m)] = byte(1 + rng.Intn(4))
				}
			} else {
				pattern = randomRanks(rng, m)
			}
			checkAgainstNaive(t, s, text, pattern, k)
		}
	}
}

func TestRepetitiveText(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	unit := randomRanks(rng, 9)
	var text []byte
	for i := 0; i < 80; i++ {
		text = append(text, unit...)
	}
	s := newMatcher(t, text)
	for k := 0; k <= 3; k++ {
		pattern := append([]byte(nil), text[5:35]...)
		for f := 0; f < k; f++ {
			pattern[rng.Intn(len(pattern))] = byte(1 + rng.Intn(4))
		}
		checkAgainstNaive(t, s, text, pattern, k)
	}
}

func TestQuick(t *testing.T) {
	f := func(seed int64, n16 uint16, m8, k8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randomRanks(rng, 10+int(n16)%300)
		m := 1 + int(m8)%20
		if m > len(text) {
			m = len(text)
		}
		k := int(k8) % 4
		pattern := randomRanks(rng, m)
		got, _, err := newMatcher(t, text).Find(pattern, k)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEdgeCases(t *testing.T) {
	text := []byte{1, 2, 3, 4, 1, 2}
	s := newMatcher(t, text)
	if _, _, err := s.Find(nil, 1); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, _, err := s.Find([]byte{1}, -1); err == nil {
		t.Error("negative k accepted")
	}
	if got, _, err := s.Find([]byte{1, 2, 3, 4, 1, 2, 3}, 1); err != nil || got != nil {
		t.Error("overlong pattern should yield nothing")
	}
	// k >= m: all windows.
	got, _, err := s.Find([]byte{4, 4}, 2)
	if err != nil || len(got) != 5 {
		t.Errorf("k>=m: %v, %v", got, err)
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(183))
	text := randomRanks(rng, 3000)
	s := newMatcher(t, text)
	pattern := append([]byte(nil), text[700:740]...)
	pattern[5] = byte(1 + rng.Intn(4))
	_, st, err := s.Find(pattern, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 3 || st.Seeds == 0 || st.Candidates == 0 || st.Matches == 0 {
		t.Errorf("stats = %+v", st)
	}
}
