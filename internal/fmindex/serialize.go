package fmindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/binio"
	"bwtmatch/internal/bitvec"
)

// Serialization of the index: a little-endian binary format with a magic
// header, so a genome is indexed once and reloaded in milliseconds
// (§III-B: "once it is created, it can be repeatedly used").
//
// Layout: magic, version, options, n, sentPos, BWT payload (byte or
// packed), C array, occ checkpoints, SA-mark bitvector, SA samples.

const (
	indexMagic   = uint32(0xB3711D01) // "BWT index" v1
	layoutByte   = uint8(0)
	layoutPacked = uint8(1)
)

// Sanity caps against corrupt headers: no length field may exceed
// maxLen, and no plausible sampling rate is as sparse as maxRate.
const (
	maxLen  = 1 << 34
	maxRate = 1 << 28
)

// ErrFormat reports an unreadable index stream.
var ErrFormat = errors.New("fmindex: bad index format")

// WriteTo serializes the index.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	if idx.rel != nil {
		return 0, errors.New("fmindex: relative index has no standalone serialization; use WriteRelativeTo")
	}
	cw := &countWriter{w: bufio.NewWriter(w)}
	put := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }

	layout := layoutByte
	if idx.packed != nil {
		layout = layoutPacked
	}
	header := []any{
		indexMagic,
		uint32(idx.opts.OccRate),
		uint32(idx.opts.SARate),
		layout,
		uint64(idx.n),
		idx.sentPos,
	}
	for _, h := range header {
		if err := put(h); err != nil {
			return cw.n, err
		}
	}
	if idx.packed != nil {
		if err := put(idx.packed.sentPos); err != nil {
			return cw.n, err
		}
		if err := put(uint64(len(idx.packed.words))); err != nil {
			return cw.n, err
		}
		if err := put(idx.packed.words); err != nil {
			return cw.n, err
		}
	} else {
		if _, err := cw.Write(idx.bwt); err != nil {
			return cw.n, err
		}
	}
	if err := put(idx.c[:]); err != nil {
		return cw.n, err
	}
	if idx.occ2 != nil {
		if err := firstErr(
			put(uint8(1)),
			put(uint64(len(idx.occ2.super))),
			put(idx.occ2.super),
			put(uint64(len(idx.occ2.block))),
			put(idx.occ2.block),
		); err != nil {
			return cw.n, err
		}
	} else {
		if err := firstErr(
			put(uint8(0)),
			put(uint64(len(idx.occ))),
			put(idx.occ),
		); err != nil {
			return cw.n, err
		}
	}
	if err := idx.writeSASamples(put); err != nil {
		return cw.n, err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// writeSASamples writes the Locate sample block shared by both index
// formats: the SA-mark bitvector words and the samples, each preceded
// by its length.
func (idx *Index) writeSASamples(put func(any) error) error {
	markBits := markedBits(idx.saMarked)
	return firstErr(
		put(uint64(len(markBits))),
		put(markBits),
		put(uint64(len(idx.saSamples))),
		put(idx.saSamples),
	)
}

// readSASamples reads the block writeSASamples wrote into idx, whose n
// must already be set, and checks that there is one sample per marked
// row.
func (idx *Index) readSASamples(br *bufio.Reader) error {
	var markWords uint64
	if err := binary.Read(br, binary.LittleEndian, &markWords); err != nil || markWords > maxLen {
		return fmt.Errorf("%w: mark length", ErrFormat)
	}
	bits, err := binio.ReadSlice[uint64](br, markWords)
	if err != nil {
		return fmt.Errorf("%w: marks: %v", ErrFormat, err)
	}
	idx.saMarked = bitvec.NewRank(bitvec.FromWords(bits, idx.n+1))
	var samples uint64
	if err := binary.Read(br, binary.LittleEndian, &samples); err != nil || samples > maxLen {
		return fmt.Errorf("%w: sample length", ErrFormat)
	}
	saSamples, err := binio.ReadSlice[int32](br, samples)
	if err != nil {
		return fmt.Errorf("%w: samples: %v", ErrFormat, err)
	}
	idx.saSamples = saSamples
	if int(samples) != idx.saMarked.Ones() {
		return fmt.Errorf("%w: %d samples for %d marked rows", ErrFormat, samples, idx.saMarked.Ones())
	}
	return nil
}

// ReadIndex deserializes an index written by WriteTo.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic uint32
	if err := get(&magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrFormat, magic)
	}
	var occRate, saRate uint32
	var layout uint8
	var n uint64
	idx := &Index{}
	if err := firstErr(
		get(&occRate), get(&saRate), get(&layout), get(&n), get(&idx.sentPos),
	); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	idx.opts = Options{OccRate: int(occRate), SARate: int(saRate), PackedBWT: layout == layoutPacked}
	idx.deriveOccShift()
	if err := idx.opts.normalize(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	idx.n = int(n)
	if n > maxLen {
		return nil, fmt.Errorf("%w: n %d", ErrFormat, n)
	}
	if occRate > maxRate || saRate > maxRate {
		return nil, fmt.Errorf("%w: rates occ=%d sa=%d", ErrFormat, occRate, saRate)
	}

	switch layout {
	case layoutPacked:
		p := &packedBWT{n: int32(n) + 1}
		var words uint64
		if err := firstErr(get(&p.sentPos), get(&words)); err != nil {
			return nil, fmt.Errorf("%w: packed header: %v", ErrFormat, err)
		}
		if words > maxLen {
			return nil, fmt.Errorf("%w: words %d", ErrFormat, words)
		}
		payload, err := binio.ReadSlice[uint64](br, words)
		if err != nil {
			return nil, fmt.Errorf("%w: packed words: %v", ErrFormat, err)
		}
		p.words = payload
		idx.packed = p
	case layoutByte:
		bwt, err := binio.ReadSlice[byte](br, n+1)
		if err != nil {
			return nil, fmt.Errorf("%w: bwt: %v", ErrFormat, err)
		}
		idx.bwt = bwt
	default:
		return nil, fmt.Errorf("%w: layout %d", ErrFormat, layout)
	}

	if err := get(idx.c[:]); err != nil {
		return nil, fmt.Errorf("%w: c array: %v", ErrFormat, err)
	}
	var occLayout uint8
	if err := get(&occLayout); err != nil {
		return nil, fmt.Errorf("%w: occ layout", ErrFormat)
	}
	switch occLayout {
	case 1:
		idx.opts.TwoLevelOcc = true
		occ2 := &twoLevelOcc{}
		var superLen, blockLen uint64
		if err := get(&superLen); err != nil || superLen > maxLen {
			return nil, fmt.Errorf("%w: super length", ErrFormat)
		}
		super, err := binio.ReadSlice[uint32](br, superLen)
		if err != nil {
			return nil, fmt.Errorf("%w: super: %v", ErrFormat, err)
		}
		occ2.super = super
		if err := get(&blockLen); err != nil || blockLen > maxLen {
			return nil, fmt.Errorf("%w: block length", ErrFormat)
		}
		block, err := binio.ReadSlice[uint8](br, blockLen)
		if err != nil {
			return nil, fmt.Errorf("%w: block: %v", ErrFormat, err)
		}
		occ2.block = block
		idx.occ2 = occ2
	case 0:
		var occLen uint64
		if err := get(&occLen); err != nil || occLen > maxLen {
			return nil, fmt.Errorf("%w: occ length", ErrFormat)
		}
		occ, err := binio.ReadSlice[int32](br, occLen)
		if err != nil {
			return nil, fmt.Errorf("%w: occ: %v", ErrFormat, err)
		}
		idx.occ = occ
	default:
		return nil, fmt.Errorf("%w: occ layout %d", ErrFormat, occLayout)
	}
	if err := idx.readSASamples(br); err != nil {
		return nil, err
	}
	if err := idx.verifyLoad(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return idx, nil
}

// verifyLoad cross-checks the structures decoded from an untrusted
// stream against each other in O(n): the C array must be the prefix sums
// of the BWT's character counts, the rankall checkpoints must equal a
// fresh recount, and the LF mapping must form a single cycle through all
// n+1 rows whose recovered text positions match every stored SA sample.
// An index that passes is fully internally consistent — Step, Locate and
// the LF walk cannot index out of range or loop forever on it — so a
// corrupt file is rejected here rather than surfacing as a panic deep in
// a search. The deeper (and slower) oracle cross-checks live behind the
// kminvariants build tag; this gate is cheap enough to run on every
// load.
func (idx *Index) verifyLoad() error {
	rows := idx.n + 1
	if idx.sentPos < 0 || int(idx.sentPos) >= rows {
		return fmt.Errorf("sentinel position %d outside %d rows", idx.sentPos, rows)
	}
	if idx.rel != nil {
		return idx.verifyRelativeLoad()
	}
	if p := idx.packed; p != nil {
		if int(p.n) != rows || p.sentPos != idx.sentPos {
			return fmt.Errorf("packed header (n=%d sent=%d) disagrees with index (n=%d sent=%d)",
				p.n, p.sentPos, rows, idx.sentPos)
		}
		if len(p.words) != (rows+codesPerWord-1)/codesPerWord {
			return fmt.Errorf("packed payload %d words for %d rows", len(p.words), rows)
		}
	} else if len(idx.bwt) != rows {
		return fmt.Errorf("bwt payload %d bytes for %d rows", len(idx.bwt), rows)
	}

	// Character census; in the byte layout also reject junk values and
	// stray sentinels (the packed layout cannot represent either).
	var counts [alphabet.Size]int32
	if idx.packed == nil {
		for i, ch := range idx.bwt {
			if ch >= alphabet.Size {
				return fmt.Errorf("bwt value %d at row %d", ch, i)
			}
			if ch == alphabet.Sentinel && int32(i) != idx.sentPos {
				return fmt.Errorf("stray sentinel at row %d (header says %d)", i, idx.sentPos)
			}
			counts[ch]++
		}
	} else {
		for i := int32(0); int(i) < rows; i++ {
			counts[idx.bwtAt(i)]++
		}
	}
	if err := idx.verifyCArray(counts); err != nil {
		return err
	}

	// Rankall checkpoints: recompute from the BWT and demand equality.
	bwt := idx.BWT()
	if idx.occ2 != nil {
		fresh := buildTwoLevel(bwt, 1)
		if !slices.Equal(fresh.super, idx.occ2.super) || !slices.Equal(fresh.block, idx.occ2.block) {
			return fmt.Errorf("two-level occ directory disagrees with bwt recount")
		}
	} else {
		rate := idx.opts.OccRate
		nChk := rows/rate + 1
		if len(idx.occ) != nChk*alphabet.Bases {
			return fmt.Errorf("occ table %d entries, want %d", len(idx.occ), nChk*alphabet.Bases)
		}
		var running [alphabet.Bases]int32
		for p := 0; p <= rows; p++ {
			if p%rate == 0 {
				chk := (p / rate) * alphabet.Bases
				for x := 0; x < alphabet.Bases; x++ {
					if idx.occ[chk+x] != running[x] {
						return fmt.Errorf("occ checkpoint %d base %d = %d, recount %d",
							p/rate, x, idx.occ[chk+x], running[x])
					}
				}
			}
			if p < rows {
				if ch := bwt[p]; ch != alphabet.Sentinel {
					running[ch-1]++
				}
			}
		}
	}

	return idx.verifySASamples(bwt)
}

// verifyCArray checks the C array against a character census of the BWT.
func (idx *Index) verifyCArray(counts [alphabet.Size]int32) error {
	rows := idx.n + 1
	var sum int32
	for x := 0; x < alphabet.Size; x++ {
		if idx.c[x] != sum {
			return fmt.Errorf("c[%d] = %d, recount %d", x, idx.c[x], sum)
		}
		sum += counts[x]
	}
	if idx.c[alphabet.Size] != sum || int(sum) != rows {
		return fmt.Errorf("c total %d, recount %d over %d rows", idx.c[alphabet.Size], sum, rows)
	}
	return nil
}

// verifySASamples checks that the LF mapping, computed by one sequential
// scan of the materialized BWT, traces a single cycle visiting every row
// exactly once, and that the text position recovered at each marked row
// equals the stored sample.
func (idx *Index) verifySASamples(bwt []byte) error {
	rows := idx.n + 1
	if idx.saMarked.Len() != rows {
		return fmt.Errorf("mark bitvector %d bits for %d rows", idx.saMarked.Len(), rows)
	}
	if idx.saMarked.Ones() == 0 {
		return fmt.Errorf("no sampled SA rows")
	}
	lf := make([]int32, rows)
	var running [alphabet.Size]int32
	for i := 0; i < rows; i++ {
		ch := bwt[i]
		if ch == alphabet.Sentinel {
			lf[i] = 0
		} else {
			lf[i] = idx.c[ch] + running[ch]
		}
		running[ch]++
	}
	visited := bitvec.New(rows)
	row := int32(0) // row 0 holds the bare-sentinel suffix, text position n
	for pos := idx.n; ; pos-- {
		if visited.Get(int(row)) {
			return fmt.Errorf("LF cycle revisits row %d with %d positions left", row, pos+1)
		}
		visited.Set(int(row))
		if idx.saMarked.Get(int(row)) {
			if got := idx.saSamples[idx.saMarked.Rank1(int(row))]; got != int32(pos) {
				return fmt.Errorf("SA sample at row %d = %d, LF walk says %d", row, got, pos)
			}
		}
		if pos == 0 {
			break
		}
		row = lf[row]
	}
	if lf[row] != 0 {
		return fmt.Errorf("LF walk ends at row %d, not the sentinel row", lf[row])
	}
	return nil
}

func markedBits(r *bitvec.Rank) []uint64 {
	v := bitvec.New(r.Len())
	for i := 0; i < r.Len(); i++ {
		if r.Get(i) {
			v.Set(i)
		}
	}
	return v.Words()
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
