package alphabet

import "fmt"

// Packed is a 2-bit-per-base packed DNA text, matching the paper's storage
// scheme ("we use 2 bits to represent a character in {a,c,g,t}"). The
// sentinel cannot be packed; Packed therefore stores only proper bases and
// records its logical length separately.
type Packed struct {
	words []uint64
	n     int
}

// basesPerWord is how many 2-bit bases fit in one 64-bit word.
const basesPerWord = 32

// Pack packs rank-encoded bases (values 1..4, i.e. A..T) into 2-bit codes.
// Rank r is stored as r-1 so the codes are 0..3.
func Pack(ranks []byte) (*Packed, error) {
	p := &Packed{
		words: make([]uint64, (len(ranks)+basesPerWord-1)/basesPerWord),
		n:     len(ranks),
	}
	for i, r := range ranks {
		if r < A || r > T {
			return nil, fmt.Errorf("alphabet: cannot pack rank %d at position %d", r, i)
		}
		p.words[i/basesPerWord] |= uint64(r-1) << uint((i%basesPerWord)*2)
	}
	return p, nil
}

// FromWords wraps a payload taken from Words as a packed text of n
// bases; words must hold at least (n+31)/32 entries.
func FromWords(words []uint64, n int) *Packed { return &Packed{words: words, n: n} }

// Words returns the packed payload: the code of base i sits in bits
// 2(i%32)..2(i%32)+1 of word i/32.
func (p *Packed) Words() []uint64 { return p.words }

// Len returns the number of bases stored.
func (p *Packed) Len() int { return p.n }

// Get returns the rank (1..4) of the base at position i.
func (p *Packed) Get(i int) byte {
	code := byte(p.words[i/basesPerWord]>>uint((i%basesPerWord)*2)) & 3
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
