package exact

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

func naiveFind(text, pattern []byte) []int32 {
	if len(pattern) == 0 {
		return nil
	}
	var out []int32
	for i := 0; i+len(pattern) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pattern)], pattern) {
			out = append(out, int32(i))
		}
	}
	return out
}

func randomBytes(rng *rand.Rand, n, sigma int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(sigma))
	}
	return b
}

func TestKMPNext(t *testing.T) {
	next := KMPNext([]byte("ababaca"))
	want := []int{0, 0, 1, 2, 3, 0, 1}
	for i := range want {
		if next[i] != want[i] {
			t.Fatalf("next = %v, want %v", next, want)
		}
	}
}

func TestPeriod(t *testing.T) {
	cases := []struct {
		s    string
		want int
	}{
		{"", 0},
		{"a", 1},
		{"aa", 1},
		{"ab", 2},
		{"abab", 2},
		{"abcabcab", 3},
		{"aabaab", 3},
		{"abcd", 4},
	}
	for _, c := range cases {
		if got := Period([]byte(c.s)); got != c.want {
			t.Errorf("Period(%q) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestAhoCorasickSingle(t *testing.T) {
	ac := NewAhoCorasick([][]byte{[]byte("aba")})
	hits := ac.Find([]byte("ababa"))
	if len(hits) != 2 || hits[0].Pos != 0 || hits[1].Pos != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestAhoCorasickMulti(t *testing.T) {
	pats := [][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")}
	ac := NewAhoCorasick(pats)
	hits := ac.Find([]byte("ushers"))
	type key struct {
		pos int32
		id  int32
	}
	got := make(map[key]bool)
	for _, h := range hits {
		got[key{h.Pos, h.PatternID}] = true
	}
	want := []key{{1, 1}, {2, 0}, {2, 3}} // she@1, he@2, hers@2
	if len(got) != len(want) {
		t.Fatalf("hits = %v", hits)
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("missing %v in %v", w, hits)
		}
	}
}

func TestAhoCorasickAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		text := randomBytes(rng, 50+rng.Intn(300), 2)
		numPats := 1 + rng.Intn(6)
		pats := make([][]byte, numPats)
		for i := range pats {
			pats[i] = randomBytes(rng, 1+rng.Intn(6), 2)
		}
		ac := NewAhoCorasick(pats)
		var got []Hit
		ac.Scan(text, func(h Hit) bool { got = append(got, h); return true })
		var want []Hit
		for id, p := range pats {
			for _, pos := range naiveFind(text, p) {
				want = append(want, Hit{Pos: pos, PatternID: int32(id)})
			}
		}
		lessHit := func(a, b Hit) bool {
			if a.Pos != b.Pos {
				return a.Pos < b.Pos
			}
			return a.PatternID < b.PatternID
		}
		sort.Slice(got, func(i, j int) bool { return lessHit(got[i], got[j]) })
		sort.Slice(want, func(i, j int) bool { return lessHit(want[i], want[j]) })
		if len(got) != len(want) {
			t.Fatalf("got %d hits, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
}

func TestAhoCorasickEmptyPattern(t *testing.T) {
	ac := NewAhoCorasick([][]byte{nil, []byte("ab")})
	hits := ac.Find([]byte("abab"))
	for _, h := range hits {
		if h.PatternID == 0 {
			t.Fatal("empty pattern produced a hit")
		}
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestAhoCorasickScanEarlyStop(t *testing.T) {
	ac := NewAhoCorasick([][]byte{[]byte("a")})
	count := 0
	ac.Scan([]byte("aaaa"), func(Hit) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("scan visited %d hits, want 2", count)
	}
}

func BenchmarkAhoCorasick(b *testing.B) {
	rng := rand.New(rand.NewSource(74))
	text := randomBytes(rng, 1<<20, 4)
	pats := make([][]byte, 16)
	for i := range pats {
		p := rng.Intn(len(text) - 20)
		pats[i] = text[p : p+20]
	}
	ac := NewAhoCorasick(pats)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ac.Scan(text, func(Hit) bool { return true })
	}
}
