package suffixarray

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"bwtmatch/internal/dna"
)

// naiveSA builds a suffix array by direct sorting, for differential testing.
func naiveSA(text []byte) []int32 {
	n := len(text)
	sa := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool {
		return bytes.Compare(text[sa[a]:], text[sa[b]:]) < 0
	})
	return sa
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomText(rng *rand.Rand, n, sigma int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte('a' + rng.Intn(sigma))
	}
	return t
}

func TestBuildFixed(t *testing.T) {
	cases := []string{
		"",
		"a",
		"aa",
		"ab",
		"ba",
		"banana",
		"mississippi",
		"acagaca",
		"aaaaaaaaaa",
		"abababababab",
		"cagtcagtcagt",
	}
	for _, s := range cases {
		got := Build([]byte(s))
		want := naiveSA([]byte(s))
		if !equalInt32(got, want) {
			t.Errorf("Build(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestBuildPaperExample(t *testing.T) {
	// Paper §III: s = acagaca$ (we model the sentinel explicitly here since
	// Build itself appends only a virtual one).
	s := []byte("acagaca")
	sa := Build(s)
	// Sortedness invariant.
	for i := 1; i < len(sa); i++ {
		if bytes.Compare(s[sa[i-1]:], s[sa[i]:]) >= 0 {
			t.Fatalf("suffixes out of order at %d", i)
		}
	}
}

func TestBuildRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		sigma := 1 + rng.Intn(4)
		text := randomText(rng, n, sigma)
		got := Build(text)
		want := naiveSA(text)
		if !equalInt32(got, want) {
			t.Fatalf("mismatch for %q: got %v want %v", text, got, want)
		}
	}
}

func TestBuildLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	text := randomText(rng, 50000, 4)
	sa := Build(text)
	perm := make([]bool, len(text))
	for i := 1; i < len(sa); i++ {
		if bytes.Compare(text[sa[i-1]:], text[sa[i]:]) >= 0 {
			t.Fatalf("order violated at %d", i)
		}
	}
	for _, p := range sa {
		if perm[p] {
			t.Fatal("not a permutation")
		}
		perm[p] = true
	}
}

func TestBuildQuick(t *testing.T) {
	f := func(seed int64, n8 uint8, sigma8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randomText(rng, int(n8), 1+int(sigma8)%4)
		return equalInt32(Build(text), naiveSA(text))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func naiveLCP(a, b []byte) int32 {
	var h int32
	for int(h) < len(a) && int(h) < len(b) && a[h] == b[h] {
		h++
	}
	return h
}

func TestLCPAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		text := randomText(rng, rng.Intn(300), 1+rng.Intn(3))
		sa := Build(text)
		lcp := LCP(text, sa)
		for i := 1; i < len(sa); i++ {
			want := naiveLCP(text[sa[i-1]:], text[sa[i]:])
			if lcp[i] != want {
				t.Fatalf("lcp[%d] = %d, want %d (text %q)", i, lcp[i], want, text)
			}
		}
		if len(lcp) > 0 && lcp[0] != 0 {
			t.Fatal("lcp[0] != 0")
		}
	}
}

func TestRMQ(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		a := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Intn(1000))
		}
		r := NewRMQ(a)
		for q := 0; q < 100; q++ {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			want := a[lo]
			for _, v := range a[lo+1 : hi] {
				if v < want {
					want = v
				}
			}
			if got := r.Min(lo, hi); got != want {
				t.Fatalf("Min(%d,%d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
}

func TestLCEAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		text := randomText(rng, 1+rng.Intn(200), 1+rng.Intn(3))
		l := NewLCE(text)
		n := len(text)
		for q := 0; q < 200; q++ {
			i, j := rng.Intn(n), rng.Intn(n)
			want := int(naiveLCP(text[i:], text[j:]))
			if got := l.Extend(i, j); got != want {
				t.Fatalf("Extend(%d,%d) = %d, want %d (text %q)", i, j, got, want, text)
			}
		}
	}
}

func TestLCEEdges(t *testing.T) {
	l := NewLCE([]byte("abcabc"))
	if got := l.Extend(0, 0); got != 6 {
		t.Errorf("Extend(0,0) = %d, want 6", got)
	}
	if got := l.Extend(0, 3); got != 3 {
		t.Errorf("Extend(0,3) = %d, want 3", got)
	}
	if got := l.Extend(0, 6); got != 0 {
		t.Errorf("Extend(0,6) = %d, want 0", got)
	}
}

func BenchmarkBuild1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	text := randomText(rng, 1<<20, 4)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(text)
	}
}

// fuzzText shapes a fuzz input into a text: the raw bytes (sigma 0),
// or the bytes folded onto 1–4 symbols; with period > 0, the first
// 1–8 characters repeated to four times the input's length, so
// homopolymers and short periods, the deepest recursions, come up
// often.
func fuzzText(data []byte, sigma uint8, period uint8) []byte {
	text := bytes.Clone(data)
	if s := sigma % 5; s > 0 {
		for i, b := range text {
			text[i] = 'a' + b%s
		}
	}
	if period > 0 && len(text) > 0 {
		p := 1 + int(period-1)%min(len(text), 8)
		long := make([]byte, min(4*len(text), 2048))
		for i := range long {
			long[i] = text[i%p]
		}
		text = long
	}
	return text
}

// FuzzSuffixArray checks Build against a naive sort and against
// BuildDC3, and BuildInto over a slice holding stale values.
func FuzzSuffixArray(f *testing.F) {
	f.Add([]byte("mississippi"), uint8(0), uint8(0))
	f.Add([]byte("acagaca"), uint8(4), uint8(0))
	f.Add([]byte("a"), uint8(1), uint8(1))
	f.Add([]byte("abcabcab"), uint8(3), uint8(3))
	f.Add([]byte{0, 255, 0, 255, 1}, uint8(0), uint8(2))
	f.Add([]byte("cagtcagtcagtaa"), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, sigma, period uint8) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		text := fuzzText(data, sigma, period)
		want := naiveSA(text)
		if got := Build(text); !equalInt32(got, want) {
			t.Fatalf("Build(%q) = %v, want %v", text, got, want)
		}
		if got := BuildDC3(text); !equalInt32(got, want) {
			t.Fatalf("BuildDC3(%q) = %v, want %v", text, got, want)
		}
		sa := make([]int32, len(text)+3)
		for i := range sa {
			sa[i] = int32(-7 * i)
		}
		BuildInto(text, sa)
		if !equalInt32(sa[:len(text)], want) || sa[len(text)] != int32(-7*len(text)) {
			t.Fatalf("BuildInto(%q) over stale values = %v, want %v", text, sa, want)
		}
		if err := CheckSA(text, sa[:len(text)]); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBuildAllocation pins the in-place construction: Build of a
// 1 MiB DNA text allocates at most 6 bytes per base, its 4-byte output
// included, on uniform random bases and on a repeat-rich genome.
func TestBuildAllocation(t *testing.T) {
	const n = 1 << 20
	rat, err := dna.Generate(dna.GenomeConfig{Length: n, GC: 0.42, MarkovBias: 0.15,
		RepeatFraction: 0.40, TandemFraction: 0.03, Seed: 1003})
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string][]byte{
		"uniform": randomText(rand.New(rand.NewSource(13)), n, 4),
		"repeats": rat,
	}
	for name, text := range texts {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sa := Build(text)
		runtime.ReadMemStats(&after)
		perBase := float64(after.TotalAlloc-before.TotalAlloc) / n
		if perBase > 6 {
			t.Errorf("%s: Build allocated %.2f B/base, want at most 6", name, perBase)
		}
		t.Logf("%s: %.2f B/base", name, perBase)
		for _, i := range []int{1, n / 2, n - 1} {
			if bytes.Compare(text[sa[i-1]:], text[sa[i]:]) >= 0 {
				t.Fatalf("%s: suffixes out of order at %d", name, i)
			}
		}
	}
}
