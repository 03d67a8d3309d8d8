package fmindex

import (
	"math/bits"
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

const codesPerWord = 32

// newPackedBWT packs a rank-encoded BWT (values 0..4, exactly one
// sentinel) across workers goroutines; ranges are word-aligned so each
// output word has a single writer.
func newPackedBWT(bwt []byte, workers int) packedBWT {
	p := packedBWT{
		words: make([]uint64, (len(bwt)+codesPerWord-1)/codesPerWord),
		n:     int32(len(bwt)),
	}
	var sent atomic.Int32
	parallelRanges(len(bwt), workers, codesPerWord, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := bwt[i]
			var code uint64
			if r == alphabet.Sentinel {
				sent.Store(int32(i)) // exactly one sentinel exists
				code = 0
			} else {
				code = uint64(r - 1)
			}
			p.words[i/codesPerWord] |= code << uint((i%codesPerWord)*2)
		}
	})
	p.sentPos = sent.Load()
	return p
}

// code returns the 2-bit code stored at position i, without the
// sentinel substitution get makes.
func (p *packedBWT) code(i int32) byte {
	return byte(p.words[i/codesPerWord]>>uint((i%codesPerWord)*2)) & 3
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
	if from >= to {
		return 0
	}
	code := uint64(x - 1)
	// Pattern with the target code in every 2-bit slot.
	pat := code * 0x5555555555555555
	var cnt int32
	wFrom, wTo := from/codesPerWord, (to-1)/codesPerWord
	for w := wFrom; w <= wTo; w++ {
		word := p.words[w] ^ pat // 00 pairs where the code matches
		// Collapse each pair to a single bit: 0 where matched.
		miss := (word | word>>1) & 0x5555555555555555
		matched := uint64(0x5555555555555555) &^ miss
		// Mask the in-range slots of this word.
		lo := int32(0)
		if w == wFrom {
			lo = from % codesPerWord
		}
		hi := int32(codesPerWord)
		if w == wTo {
			hi = (to-1)%codesPerWord + 1
		}
		if lo > 0 {
			matched &^= (uint64(1) << uint(lo*2)) - 1
		}
		if hi < codesPerWord {
			matched &= (uint64(1) << uint(hi*2)) - 1
		}
		cnt += int32(bits.OnesCount64(matched))
	}
	// The sentinel slot stores code 0; undo the spurious 'a' match.
	if x == alphabet.A && from <= p.sentPos && p.sentPos < to {
		cnt--
	}
	return cnt
}

// countAll adds the occurrences of every base in positions [from, to)
// to cnt, reading each word exactly once — the rankall form of count();
// the StepAll expansion loop calls this for both interval endpoints, so
// the single pass quarters the memory traffic of four count() calls.
func (p *packedBWT) countAll(from, to int32, cnt *[alphabet.Bases]int32) {
	if from >= to {
		return
	}
	const odd = uint64(0x5555555555555555)
	wFrom, wTo := from/codesPerWord, (to-1)/codesPerWord
	for w := wFrom; w <= wTo; w++ {
		word := p.words[w]
		mask := odd
		if w == wFrom {
			if lo := from % codesPerWord; lo > 0 {
				mask &^= (uint64(1) << uint(lo*2)) - 1
			}
		}
		if w == wTo {
			if hi := (to-1)%codesPerWord + 1; hi < codesPerWord {
				mask &= (uint64(1) << uint(hi*2)) - 1
			}
		}
		b0 := word & odd
		b1 := (word >> 1) & odd
		cnt[0] += int32(bits.OnesCount64(mask &^ (b0 | b1))) // code 00 = a
		cnt[1] += int32(bits.OnesCount64(mask & b0 &^ b1))   // code 01 = c
		cnt[2] += int32(bits.OnesCount64(mask & b1 &^ b0))   // code 10 = g
		cnt[3] += int32(bits.OnesCount64(mask & b0 & b1))    // code 11 = t
	}
	// The sentinel slot stores code 0; undo the spurious 'a' match.
	if from <= p.sentPos && p.sentPos < to {
		cnt[0]--
	}
}

// sizeBytes returns the payload size.
func (p *packedBWT) sizeBytes() int { return len(p.words) * 8 }
