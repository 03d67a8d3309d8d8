package alphabet

import (
	"fmt"
	"math/bits"
)

// Packed is a 2-bit-per-base packed DNA text, matching the paper's storage
// scheme ("we use 2 bits to represent a character in {a,c,g,t}"). The
// sentinel cannot be packed; Packed therefore stores only proper bases and
// records its logical length separately.
type Packed struct {
	words []uint64
	n     int
}

// CodesPerWord is how many 2-bit codes fit in one 64-bit word: the
// layout of Packed, of the 2-bit BWT and of the relative index's
// exception characters.
const CodesPerWord = 32

// Pack packs rank-encoded bases (values 1..4, i.e. A..T) into 2-bit codes.
// Rank r is stored as r-1 so the codes are 0..3.
func Pack(ranks []byte) (*Packed, error) {
	p := &Packed{
		words: make([]uint64, (len(ranks)+CodesPerWord-1)/CodesPerWord),
		n:     len(ranks),
	}
	for i, r := range ranks {
		if r < A || r > T {
			return nil, fmt.Errorf("alphabet: cannot pack rank %d at position %d", r, i)
		}
		p.words[i/CodesPerWord] |= uint64(r-1) << uint((i%CodesPerWord)*2)
	}
	return p, nil
}

// FromWords wraps a payload taken from Words as a packed text of n
// bases. It accepts only the encoding Pack writes: exactly (n+31)/32
// words, with every bit past base n-1 zero. So a loaded text holds no
// words beyond its bases, and saving it again reproduces the payload.
func FromWords(words []uint64, n int) (*Packed, error) {
	if n < 0 || len(words) != (n+CodesPerWord-1)/CodesPerWord {
		return nil, fmt.Errorf("alphabet: %d words cannot hold exactly %d bases", len(words), n)
	}
	if r := n % CodesPerWord; r != 0 && words[len(words)-1]>>uint(r*2) != 0 {
		return nil, fmt.Errorf("alphabet: nonzero padding past base %d", n)
	}
	return &Packed{words: words, n: n}, nil
}

// Words returns the packed payload: the code of base i sits in bits
// 2(i%32)..2(i%32)+1 of word i/32.
func (p *Packed) Words() []uint64 { return p.words }

// Len returns the number of bases stored.
func (p *Packed) Len() int { return p.n }

// Get returns the rank (1..4) of the base at position i.
func (p *Packed) Get(i int) byte {
	code := byte(p.words[i/CodesPerWord]>>uint((i%CodesPerWord)*2)) & 3
	return code + 1
}

// Slice appends the ranks of positions [lo, hi) to dst and returns it.
func (p *Packed) Slice(dst []byte, lo, hi int) []byte {
	for i := lo; i < hi; i++ {
		dst = append(dst, p.Get(i))
	}
	return dst
}

// SizeBytes returns the in-memory payload size of the packed text.
func (p *Packed) SizeBytes() int { return len(p.words) * 8 }

// Unpack expands the whole packed text back to rank encoding.
func (p *Packed) Unpack() []byte {
	out := make([]byte, p.n)
	for i := range out {
		out[i] = p.Get(i)
	}
	return out
}

// Mismatches returns the Hamming distance between the bases of pat and
// the text's bases start..start+pat.Len()-1, a window that must lie
// inside the text. It compares 32 bases per word: it aligns the text's
// codes to the pattern's, XORs the two words, folds each 2-bit slot
// onto its low bit, masks off the slots past the pattern's end and
// popcounts. It stops at the first word that takes the count past
// limit: the result is exact when it is at most limit, and some value
// above limit otherwise.
func (p *Packed) Mismatches(start int, pat *Packed, limit int) int {
	m := pat.n
	if m == 0 {
		return 0
	}
	// The text words the window touches, and the shift that moves the
	// window's first code to slot 0.
	text := p.words[start/CodesPerWord : (start+m-1)/CodesPerWord+1]
	sh := uint(start%CodesPerWord) * 2
	d := 0
	for j, pw := range pat.words {
		t := text[j] >> sh
		if j+1 < len(text) {
			t |= text[j+1] << (64 - sh) // a shift by 64 yields 0
		}
		x := t ^ pw
		x = (x | x>>1) & slotLowBits // one bit per differing slot
		if rest := m - j*CodesPerWord; rest < CodesPerWord {
			x &= 1<<uint(rest*2) - 1
		}
		d += bits.OnesCount64(x)
		if d > limit {
			return d
		}
	}
	return d
}

// CountCode returns how many of the 2-bit codes in slots [from, to) of
// words equal code (0..3), where slot i sits in bits 2(i%32)..2(i%32)+1
// of word i/32 — the layout of Packed. It popcounts whole words: the
// counting kernel of the 2-bit BWT and of the relative index's
// exception characters. Both hold at most one sentinel, escaped out of
// band: its slot, sent (-1 for none), stores code 0 and is not
// counted. Slots are int32 because both index rows that way.
func CountCode(words []uint64, code byte, from, to, sent int32) int32 {
	if from >= to {
		return 0
	}
	var cnt int32
	if code == 0 && from <= sent && sent < to {
		cnt = -1
	}
	// Pattern with the target code in every 2-bit slot.
	pat := uint64(code) * slotLowBits
	mask, last := slotMasks(from, to)
	for w, wTo := from/CodesPerWord, (to-1)/CodesPerWord; ; w++ {
		if w == wTo {
			mask &= last
		}
		word := words[w] ^ pat // 00 pairs where the code matches
		// One bit per slot, set where the pair is 00.
		cnt += int32(bits.OnesCount64(^(word | word>>1) & mask))
		if w == wTo {
			return cnt
		}
		mask = slotLowBits
	}
}

// CountCodes adds to cnt[c] how many codes in slots [from, to) of words
// equal c, for all four codes and apart from the sentinel's slot sent,
// reading each word once — the rankall form of CountCode.
func CountCodes(words []uint64, from, to, sent int32, cnt *[Bases]int32) {
	if from >= to {
		return
	}
	if from <= sent && sent < to {
		cnt[0]--
	}
	const odd = slotLowBits
	mask, last := slotMasks(from, to)
	for w, wTo := from/CodesPerWord, (to-1)/CodesPerWord; ; w++ {
		if w == wTo {
			mask &= last
		}
		word := words[w]
		b0 := word & odd
		b1 := (word >> 1) & odd
		cnt[0] += int32(bits.OnesCount64(mask &^ (b0 | b1))) // code 00 = a
		cnt[1] += int32(bits.OnesCount64(mask & b0 &^ b1))   // code 01 = c
		cnt[2] += int32(bits.OnesCount64(mask & b1 &^ b0))   // code 10 = g
		cnt[3] += int32(bits.OnesCount64(mask & b0 & b1))    // code 11 = t
		if w == wTo {
			return
		}
		mask = odd
	}
}

// slotLowBits has the low bit of every 2-bit slot of a word set.
const slotLowBits = uint64(0x5555555555555555)

// slotMasks returns the low bit of each slot of the first word at or
// after slot from, and of each slot of the last word before slot to
// (from < to).
func slotMasks(from, to int32) (first, last uint64) {
	return slotLowBits << uint(from%CodesPerWord*2), slotLowBits >> uint(62-(to-1)%CodesPerWord*2)
}
