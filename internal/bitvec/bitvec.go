// Package bitvec provides plain and rank/select-capable bit vectors.
//
// The rank structure is the classic one-level sampled scheme: a cumulative
// popcount is stored every 512 bits (8 words) and ranks inside a block are
// completed with hardware popcounts. Select binary-searches those
// checkpoints and finishes inside one word with a broadword select.
// This is the "manual bit tricks" substrate for the FM-index occ tables, the
// relative index's marker vectors and the wavelet tree.
package bitvec

import "math/bits"

// Vector is a growable bit vector.
type Vector struct {
	words []uint64
	n     int
}

// New returns a Vector with n zero bits.
func New(n int) *Vector {
	return &Vector{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1.
func (v *Vector) Set(i int) { v.words[i>>6] |= 1 << uint(i&63) }

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) { v.words[i>>6] &^= 1 << uint(i&63) }

// Get reports bit i.
func (v *Vector) Get(i int) bool { return v.words[i>>6]>>uint(i&63)&1 == 1 }

// Append adds a bit at the end.
func (v *Vector) Append(b bool) {
	if v.n&63 == 0 {
		v.words = append(v.words, 0)
	}
	if b {
		v.words[v.n>>6] |= 1 << uint(v.n&63)
	}
	v.n++
}

// Count returns the total number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// SizeBytes returns the payload size in bytes.
func (v *Vector) SizeBytes() int { return len(v.words) * 8 }

// Words exposes the raw word payload for serialization. The caller must
// not modify it.
func (v *Vector) Words() []uint64 { return v.words }

// FromWords reconstructs a Vector of n bits over a word payload (as
// returned by Words). The slice is adopted, not copied.
func FromWords(words []uint64, n int) *Vector {
	need := (n + 63) / 64
	if len(words) < need {
		padded := make([]uint64, need)
		copy(padded, words)
		words = padded
	}
	return &Vector{words: words, n: n}
}

// blockWords is the number of 64-bit words per rank superblock (512 bits).
const blockWords = 8

// Rank supports O(1) rank and O(log n)-ish select queries over an immutable
// bit sequence.
type Rank struct {
	v      *Vector
	blocks []uint32 // cumulative popcount before each superblock
	ones   int
}

// NewRank freezes v (which must not be modified afterwards) and builds the
// rank directory.
func NewRank(v *Vector) *Rank {
	nb := (len(v.words) + blockWords - 1) / blockWords
	r := &Rank{v: v, blocks: make([]uint32, nb+1)}
	c := 0
	for i, w := range v.words {
		if i%blockWords == 0 {
			r.blocks[i/blockWords] = uint32(c)
		}
		c += bits.OnesCount64(w)
	}
	r.blocks[nb] = uint32(c)
	r.ones = c
	return r
}

// Len returns the number of bits.
func (r *Rank) Len() int { return r.v.n }

// Ones returns the total number of set bits.
func (r *Rank) Ones() int { return r.ones }

// Get reports bit i.
func (r *Rank) Get(i int) bool { return r.v.Get(i) }

// Words exposes the frozen word payload for serialization. The caller
// must not modify it.
func (r *Rank) Words() []uint64 { return r.v.words }

// SizeBytes returns the resident size: bit payload plus the rank
// directory.
func (r *Rank) SizeBytes() int {
	return len(r.v.words)*8 + len(r.blocks)*4
}

// Rank1 returns the number of 1-bits in positions [0, i). Rank1(Len()) is
// the total popcount.
func (r *Rank) Rank1(i int) int {
	return int(r.blocks[i/SuperblockBits]) + r.v.RankInSuperblock(i)
}

// SuperblockBits is the spacing of Rank's directory: one cumulative
// popcount per 512 bits.
const SuperblockBits = blockWords * 64

// RankInSuperblock returns the number of 1-bits in positions
// [i - i%SuperblockBits, i): what a rank query adds to its superblock's
// checkpoint. A directory kept outside Rank, with one count per
// SuperblockBits, completes its ranks with it.
func (v *Vector) RankInSuperblock(i int) int {
	word := i >> 6
	c := 0
	for w := word - word%blockWords; w < word; w++ {
		c += bits.OnesCount64(v.words[w])
	}
	if i&63 != 0 {
		c += bits.OnesCount64(v.words[word] << uint(64-i&63))
	}
	return c
}

// Rank0 returns the number of 0-bits in positions [0, i).
func (r *Rank) Rank0(i int) int { return i - r.Rank1(i) }

// Select1 returns the position of the j-th 1-bit (1-based), or -1 if there
// are fewer than j set bits.
func (r *Rank) Select1(j int) int {
	if j < 1 || j > r.ones {
		return -1
	}
	// Binary search over superblocks, then scan words.
	lo, hi := 0, len(r.blocks)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(r.blocks[mid]) < j {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := j - int(r.blocks[lo])
	for w := lo * blockWords; w < len(r.v.words); w++ {
		c := bits.OnesCount64(r.v.words[w])
		if rem <= c {
			return w*64 + selectInWord(r.v.words[w], rem)
		}
		rem -= c
	}
	return -1
}

// Select0 returns the position of the j-th 0-bit (1-based), or -1.
func (r *Rank) Select0(j int) int {
	zeros := r.v.n - r.ones
	if j < 1 || j > zeros {
		return -1
	}
	// Binary search over superblocks on the complement count (zeros
	// before superblock i = i*512 - ones before it), then scan words.
	// Padding zeros past Len() in the final word cannot be selected:
	// j <= zeros, and every real zero precedes the padding bits.
	lo, hi := 0, len(r.blocks)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mid*blockWords*64-int(r.blocks[mid]) < j {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := j - (lo*blockWords*64 - int(r.blocks[lo]))
	for w := lo * blockWords; w < len(r.v.words); w++ {
		c := 64 - bits.OnesCount64(r.v.words[w])
		if rem <= c {
			return w*64 + selectInWord(^r.v.words[w], rem)
		}
		rem -= c
	}
	return -1
}

// select0ScanWords bounds Select0From's forward scan: 16 words, 1,024
// positions, past superblock boundaries.
const select0ScanWords = 16

// Select0From returns the position of the c-th 0-bit at or after
// position p (c >= 1), or -1 if there is none: Select0(Rank0(p)+c)
// without the rank. It scans up to select0ScanWords words forward and
// hands the rest to Select0, so a long run of ones costs one select,
// not a scan.
func (r *Rank) Select0From(p, c int) int {
	if p < 0 || p >= r.v.n {
		return -1
	}
	w := p >> 6
	word := ^r.v.words[w] &^ (1<<uint(p&63) - 1) // zeros at or after p
	end := min(w+select0ScanWords, len(r.v.words))
	for {
		z := bits.OnesCount64(word)
		if c <= z {
			if pos := w*64 + selectInWord(word, c); pos < r.v.n {
				return pos
			}
			return -1 // a padding bit past Len()
		}
		c -= z
		if w++; w == end {
			break
		}
		word = ^r.v.words[w]
	}
	if w == len(r.v.words) {
		return -1
	}
	return r.Select0(r.Rank0(w*64) + c)
}

// selectInByte[r<<8|b] is the position (0..7) of the (r+1)-th set bit
// of byte b, for r below the popcount of b.
var selectInByte = func() (t [8 << 8]uint8) {
	for b := 0; b < 256; b++ {
		r := 0
		for i := 0; i < 8; i++ {
			if b>>uint(i)&1 == 1 {
				t[r<<8|b] = uint8(i)
				r++
			}
		}
	}
	return
}()

// selectInWord returns the position (0..63) of the j-th set bit of w,
// 1-based; w must have at least j set bits. It is the broadword select
// of Vigna ("Broadword implementation of rank/select queries"): the
// popcount of each byte, their prefix sums by one multiplication, a
// bytewise comparison with j-1 that counts the bytes before the target
// one, and a table lookup inside that byte.
func selectInWord(w uint64, j int) int {
	const (
		l8 = 0x0101010101010101
		h8 = 0x8080808080808080
	)
	s := w - w>>1&0x5555555555555555
	s = s&0x3333333333333333 + s>>2&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	sums := s * l8 // byte i: set bits in bytes 0..i (at most 64)
	k := uint64(j - 1)
	// Byte i of (k|0x80)*l8 - sums is 128+k-sums_i, with no borrow
	// between bytes; its high bit is set exactly when sums_i <= k,
	// that is, for the bytes before the one holding the j-th bit.
	place := uint(bits.OnesCount64(((k*l8|h8)-sums)&h8)) * 8
	before := sums << 8 >> place & 0xff // set bits below the target byte
	b := w >> place & 0xff
	return int(place) + int(selectInByte[((k-before)<<8|b)&(8<<8-1)])
}
