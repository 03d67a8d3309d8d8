package amir

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bwtmatch/internal/alphabet"
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
	packed, err := alphabet.Pack(text)
	if err != nil {
		t.Fatal(err)
	}
	return New(text, packed)
}

func checkAgainstNaive(t *testing.T, text, pattern []byte, k int) {
	t.Helper()
	got, st, err := newMatcher(t, text).Find(pattern, k)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Find(text, pattern, k)
	if len(got) != len(want) {
		t.Fatalf("found %d, want %d (text=%v pat=%v k=%d)", len(got), len(want), text, pattern, k)
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
		t.Fatalf("stats.Matches = %d, want %d", st.Matches, len(got))
	}
}

func TestPaperIntroExample(t *testing.T) {
	text, _ := alphabet.Encode([]byte("ccacacagaagcc"))
	pattern, _ := alphabet.Encode([]byte("aaaaacaaac"))
	checkAgainstNaive(t, text, pattern, 4)
}

func TestAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 60; trial++ {
		text := randomRanks(rng, 30+rng.Intn(400))
		m := 1 + rng.Intn(30)
		if m > len(text) {
			m = len(text)
		}
		k := rng.Intn(6)
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
		checkAgainstNaive(t, text, pattern, k)
	}
}

func TestRepetitiveText(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	unit := randomRanks(rng, 7)
	var text []byte
	for i := 0; i < 60; i++ {
		text = append(text, unit...)
	}
	for k := 0; k <= 4; k++ {
		pattern := append([]byte(nil), text[10:35]...)
		for f := 0; f < k; f++ {
			pattern[rng.Intn(len(pattern))] = byte(1 + rng.Intn(4))
		}
		checkAgainstNaive(t, text, pattern, k)
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
		k := int(k8) % 5
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
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestKAtLeastM(t *testing.T) {
	text := []byte{1, 2, 3, 4, 1, 2}
	got, _, err := newMatcher(t, text).Find([]byte{4, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("k>=m: %d matches, want 5", len(got))
	}
}

func TestValidation(t *testing.T) {
	m := newMatcher(t, []byte{1, 2, 3})
	if _, _, err := m.Find(nil, 1); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, _, err := m.Find([]byte{1}, -1); err == nil {
		t.Error("negative k accepted")
	}
	if got, _, err := m.Find([]byte{1, 2, 3, 4}, 1); err != nil || got != nil {
		t.Error("overlong pattern should yield no matches, no error")
	}
}

func TestBreaksPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(8)
		m := k + 1 + rng.Intn(50)
		pattern := randomRanks(rng, m)
		offs := Breaks(pattern, k)
		if len(offs) != k+1 {
			t.Fatalf("got %d blocks, want %d", len(offs), k+1)
		}
		if offs[0] != 0 {
			t.Fatalf("first offset %d", offs[0])
		}
		for i := 1; i < len(offs); i++ {
			if offs[i] <= offs[i-1] || offs[i] >= m {
				t.Fatalf("offsets not a proper partition: %v (m=%d)", offs, m)
			}
		}
	}
}

func TestBreaksPreferAperiodic(t *testing.T) {
	// On a highly periodic pattern with a single irregularity the nudged
	// boundary should not make things worse than the even split; this is
	// a smoke test that the scoring runs and yields a valid partition.
	pattern := []byte{1, 2, 1, 2, 1, 2, 3, 1, 2, 1, 2, 1}
	offs := Breaks(pattern, 2)
	if len(offs) != 3 || offs[0] != 0 {
		t.Fatalf("Breaks = %v", offs)
	}
}

func TestSeedStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	text := randomRanks(rng, 2000)
	p := 500
	pattern := append([]byte(nil), text[p:p+40]...)
	pattern[3] = byte(1 + rng.Intn(4))
	_, st, err := newMatcher(t, text).Find(pattern, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 3 || st.Seeds == 0 || st.Candidates == 0 {
		t.Errorf("stats = %+v", st)
	}
}
