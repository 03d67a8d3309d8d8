package fmindex

import (
	"sync/atomic"

	"bwtmatch/internal/alphabet"
)

// packedBWT stores the BWT at 2 bits per character with the sentinel held
// out of band, and answers "how many occurrences of base x in L[from:to)"
// with word-parallel popcounts — the storage §V of the paper describes
// ("we use 2 bits to represent a character in {a,c,g,t}").
type packedBWT struct {
	words   []uint64 // 32 two-bit codes per word
	n       int32    // total characters including the sentinel slot
	sentPos int32    // the sentinel's position; its stored code is 0
}

// newPackedBWT packs a rank-encoded BWT (values 0..4, exactly one
// sentinel) across workers goroutines; ranges are word-aligned so each
// output word has a single writer.
func newPackedBWT(bwt []byte, workers int) packedBWT {
	p := packedBWT{
		words: make([]uint64, (len(bwt)+alphabet.CodesPerWord-1)/alphabet.CodesPerWord),
		n:     int32(len(bwt)),
	}
	var sent atomic.Int32
	parallelRanges(len(bwt), workers, alphabet.CodesPerWord, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := bwt[i]
			var code uint64
			if r == alphabet.Sentinel {
				sent.Store(int32(i)) // exactly one sentinel exists
				code = 0
			} else {
				code = uint64(r - 1)
			}
			p.words[i/alphabet.CodesPerWord] |= code << uint((i%alphabet.CodesPerWord)*2)
		}
	})
	p.sentPos = sent.Load()
	return p
}

// code returns the 2-bit code stored at position i, without the
// sentinel substitution get makes.
func (p *packedBWT) code(i int32) byte {
	return byte(p.words[i/alphabet.CodesPerWord]>>uint((i%alphabet.CodesPerWord)*2)) & 3
}

// get returns the rank (0 for the sentinel, 1..4 for bases) at position i.
func (p *packedBWT) get(i int32) byte {
	if i == p.sentPos {
		return alphabet.Sentinel
	}
	return p.code(i) + 1
}

// decode writes the ranks at positions [from, from+len(dst)) into
// dst, the sentinel included.
func (p *packedBWT) decode(dst []byte, from int32) {
	for i := range dst {
		dst[i] = p.get(from + int32(i))
	}
}

// unpack returns the BWT one rank per byte, sentinel included.
func (p *packedBWT) unpack() []byte {
	out := make([]byte, p.n)
	p.decode(out, 0)
	return out
}

// count returns the number of occurrences of base rank x (1..4) in
// positions [from, to).
func (p *packedBWT) count(x byte, from, to int32) int32 {
	return alphabet.CountCode(p.words, x-1, from, to, p.sentPos)
}

// countAll adds the occurrences of every base in positions [from, to)
// to cnt, reading each word exactly once — the rankall form of count();
// the StepAll expansion loop calls this for both interval endpoints, so
// the single pass quarters the memory traffic of four count() calls.
func (p *packedBWT) countAll(from, to int32, cnt *[alphabet.Bases]int32) {
	alphabet.CountCodes(p.words, from, to, p.sentPos, cnt)
}

// sizeBytes returns the payload size.
func (p *packedBWT) sizeBytes() int { return len(p.words) * 8 }
