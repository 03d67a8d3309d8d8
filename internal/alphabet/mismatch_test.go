package alphabet

import (
	"math/rand"
	"testing"

	"bwtmatch/internal/naive"
)

func randomRanks(rng *rand.Rand, n int) []byte {
	ranks := make([]byte, n)
	for i := range ranks {
		ranks[i] = byte(A + rng.Intn(Bases))
	}
	return ranks
}

// checkMismatches holds Packed.Mismatches to its contract against
// naive.Hamming over the decoded window: the exact count when it is at
// most limit, some value above limit otherwise.
func checkMismatches(t *testing.T, text *Packed, ranks []byte, start int, pat []byte, limit int) {
	t.Helper()
	p, err := Pack(pat)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Hamming(ranks[start:start+len(pat)], pat, len(pat))
	got := text.Mismatches(start, p, limit)
	if want <= limit && got != want || want > limit && got <= limit {
		t.Fatalf("window [%d,%d) limit %d: got %d, want %d", start, start+len(pat), limit, got, want)
	}
}

// mutate returns a copy of window with d random positions changed.
func mutate(rng *rand.Rand, window []byte, d int) []byte {
	pat := append([]byte(nil), window...)
	for _, i := range rng.Perm(len(pat))[:d] {
		pat[i] = byte(A + (int(pat[i]-A)+1+rng.Intn(Bases-1))%Bases)
	}
	return pat
}

// TestPackedMismatches runs the kernel at every start offset 0..63 and
// at the window that ends on the text's last base, for every pattern
// length 1..130 and every limit 0..m+1. The text's last word holds 7
// bases and all-ones padding, which the kernel must never count.
func TestPackedMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 7*CodesPerWord + 7
	ranks := randomRanks(rng, n)
	text, err := Pack(ranks)
	if err != nil {
		t.Fatal(err)
	}
	pad := uint(n % CodesPerWord * 2)
	text.words[len(text.words)-1] |= ^uint64(0) << pad
	for m := 1; m <= 130; m++ {
		starts := []int{n - m}
		for s := 0; s < 64 && s+m <= n; s++ {
			starts = append(starts, s)
		}
		for _, s := range starts {
			pat := mutate(rng, ranks[s:s+m], rng.Intn(m+1))
			for limit := 0; limit <= m+1; limit++ {
				checkMismatches(t, text, ranks, s, pat, limit)
			}
		}
	}
}

// FuzzPackedMismatches checks the kernel's contract on arbitrary texts,
// patterns, windows and limits, with the padding past the text's last
// base set from the input.
func FuzzPackedMismatches(f *testing.F) {
	f.Add([]byte("acgtacgtacgtacgtacgtacgtacgtacgtacgtacgt"), []byte("acgt"), uint16(3), uint8(1), uint64(0))
	f.Add([]byte("ttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttttt"), []byte("ttttttttttttttttttttttttttttttttgttt"), uint16(31), uint8(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, textIn, patIn []byte, start uint16, limit uint8, padding uint64) {
		if len(textIn) == 0 || len(patIn) == 0 || len(patIn) > len(textIn) {
			return
		}
		ranks := make([]byte, len(textIn))
		for i, b := range textIn {
			ranks[i] = A + b%Bases
		}
		pat := make([]byte, len(patIn))
		for i, b := range patIn {
			pat[i] = A + b%Bases
		}
		text, err := Pack(ranks)
		if err != nil {
			t.Fatal(err)
		}
		if r := len(ranks) % CodesPerWord; r != 0 {
			text.words[len(text.words)-1] |= padding << uint(r*2)
		}
		s := int(start) % (len(ranks) - len(pat) + 1)
		checkMismatches(t, text, ranks, s, pat, int(limit))
	})
}

// BenchmarkPackedMismatches verifies a 100-base read against windows
// of a 1 MiB text at a k=4 limit, the shape of a seed-and-extend
// candidate check.
func BenchmarkPackedMismatches(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	ranks := randomRanks(rng, 1<<20)
	text, err := Pack(ranks)
	if err != nil {
		b.Fatal(err)
	}
	const m = 100
	starts := make([]int, 1024)
	pats := make([]*Packed, len(starts))
	for i := range starts {
		starts[i] = rng.Intn(len(ranks) - m)
		if pats[i], err = Pack(mutate(rng, ranks[starts[i]:starts[i]+m], rng.Intn(8))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		j := i % len(starts)
		sum += text.Mismatches(starts[j], pats[j], 4)
	}
	_ = sum
}
