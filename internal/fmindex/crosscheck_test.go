package fmindex

import (
	"math/rand"
	"testing"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/wavelet"
)

// TestOccAgainstWaveletTree cross-validates the DNA-specialized rankall
// tables (at several checkpoint spacings, one not a power of two)
// against the general-purpose wavelet tree — two independent rank
// implementations must agree on every position.
func TestOccAgainstWaveletTree(t *testing.T) {
	rng := rand.New(rand.NewSource(261))
	text := randomRanks(rng, 1500)
	variants := []Options{
		{OccRate: 4, SARate: 8},
		{OccRate: 32, SARate: 8},
		{OccRate: 64, SARate: 8},
		{OccRate: 48, SARate: 8},
	}
	for _, opts := range variants {
		idx, err := Build(text, opts)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := wavelet.New(idx.BWT(), alphabet.Size)
		if err != nil {
			t.Fatal(err)
		}
		for p := int32(0); p <= int32(idx.N())+1; p += 7 {
			for x := byte(alphabet.A); x <= alphabet.T; x++ {
				if got, want := idx.occAt(x, p), int32(wt.Rank(x, int(p))); got != want {
					t.Fatalf("opts %+v: occAt(%d,%d) = %d, wavelet rank = %d",
						opts, x, p, got, want)
				}
			}
		}
	}
}
