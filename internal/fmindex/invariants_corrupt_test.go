//go:build kminvariants

package fmindex

import (
	"math/rand"
	"testing"

	"bwtmatch/internal/alphabet"
)

// TestCheckInvariantsDetectsCorruption tampers with each component of
// the index and requires CheckInvariants (or CheckAgainstText) to
// notice. Only built under the kminvariants tag.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	text := make([]byte, 1200)
	for i := range text {
		text[i] = byte(alphabet.A + rng.Intn(alphabet.Bases))
	}

	build := func(opts Options) *Index {
		idx, err := Build(text, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Fatalf("pristine index rejected: %v", err)
		}
		return idx
	}

	flat := Options{OccRate: 4, SARate: 16}

	t.Run("occ checkpoint", func(t *testing.T) {
		idx := build(flat)
		idx.occ[5]++
		if err := idx.CheckInvariants(); err == nil {
			t.Error("corrupt occ checkpoint not detected")
		}
	})
	t.Run("c array", func(t *testing.T) {
		idx := build(flat)
		idx.c[alphabet.C]++
		if err := idx.CheckInvariants(); err == nil {
			t.Error("corrupt C array not detected")
		}
	})
	t.Run("bwt codes", func(t *testing.T) {
		idx := build(flat)
		// Swap two adjacent distinct BWT characters away from the sentinel.
		bwt := idx.BWT()
		for i := 0; i+1 < len(bwt); i++ {
			if bwt[i] != bwt[i+1] && bwt[i] != alphabet.Sentinel && bwt[i+1] != alphabet.Sentinel {
				bwt[i], bwt[i+1] = bwt[i+1], bwt[i]
				idx.bwt = newPackedBWT(bwt, 1)
				break
			}
		}
		if err := idx.CheckInvariants(); err == nil {
			t.Error("corrupt BWT not detected")
		}
	})
	t.Run("sa sample", func(t *testing.T) {
		idx := build(flat)
		idx.saSamples[len(idx.saSamples)/2]++
		if err := idx.CheckInvariants(); err == nil {
			t.Error("corrupt SA sample not detected")
		}
	})
	t.Run("packed word", func(t *testing.T) {
		idx := build(Options{OccRate: 32, SARate: 16})
		idx.bwt.words[2] ^= 3
		if err := idx.CheckInvariants(); err == nil {
			t.Error("corrupt packed BWT word not detected")
		}
	})
	t.Run("sentinel slot", func(t *testing.T) {
		idx := build(flat)
		s := idx.bwt.sentPos
		idx.bwt.words[s/alphabet.CodesPerWord] |= 1 << uint((s%alphabet.CodesPerWord)*2)
		if err := idx.CheckInvariants(); err == nil {
			t.Error("nonzero code in the sentinel slot not detected")
		}
	})
	t.Run("wrong text", func(t *testing.T) {
		idx := build(flat)
		other := append([]byte(nil), text...)
		other[100] = alphabet.A + (other[100]-alphabet.A+1)%alphabet.Bases
		if err := idx.CheckAgainstText(other); err == nil {
			t.Error("index accepted against a different text")
		}
	})
}
