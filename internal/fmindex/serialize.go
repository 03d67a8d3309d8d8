package fmindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/binio"
	"bwtmatch/internal/bitvec"
)

// Serialization of the index: a little-endian binary format with a magic
// header, so a genome is indexed once and reloaded in milliseconds
// (§III-B: "once it is created, it can be repeatedly used").
//
// Layout: magic, options, payload code, n, sentPos, BWT payload, C
// array, checkpoint section code and table, SA-mark bitvector, SA
// samples. The writer emits the packed payload and the flat checkpoint
// section. The reader also accepts two encodings earlier writers
// emitted: a byte-per-character payload, which it validates and packs,
// and a two-level checkpoint section, which it skips, rebuilding flat
// checkpoints at DefaultOccRate.

const (
	indexMagic   = uint32(0xB3711D01) // "BWT index" v1
	layoutByte   = uint8(0)           // read only
	layoutPacked = uint8(1)
	occFlat      = uint8(0)
	occTwoLevel  = uint8(1) // read only
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
	if idx.saMarked == nil {
		return 0, ErrRankOnly
	}
	cw := &countWriter{w: bufio.NewWriter(w)}
	put := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }
	if err := firstErr(
		put(indexMagic),
		put(uint32(idx.opts.OccRate)),
		put(uint32(idx.opts.SARate)),
		put(layoutPacked),
		put(uint64(idx.n)),
		put(idx.sentPos),
		put(idx.bwt.sentPos),
		put(uint64(len(idx.bwt.words))),
		put(idx.bwt.words),
		put(idx.c[:]),
		put(occFlat),
		put(uint64(len(idx.occ))),
		put(idx.occ),
		idx.writeSASamples(put),
	); err != nil {
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
func ReadIndex(r io.Reader) (*Index, error) { return ReadIndexReversed(r, nil) }

// ReadIndexReversed is ReadIndex for an index built over the reverse
// of text, the orientation the library builds in (see SearchReversed).
// The load's LF walk, which recovers the indexed text from its last
// base to its first, compares each base with text and rejects the
// first difference, so a text stored beside the index cannot disagree
// with it. A nil text skips the comparison.
func ReadIndexReversed(r io.Reader, text *alphabet.Packed) (*Index, error) {
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
	idx := &Index{fp: new(fingerprint)}
	if err := firstErr(
		get(&occRate), get(&saRate), get(&layout), get(&n), get(&idx.sentPos),
	); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	idx.opts = Options{OccRate: int(occRate), SARate: int(saRate)}
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
	if text != nil && text.Len() != idx.n {
		return nil, fmt.Errorf("%w: text of %d bases for an index over %d", ErrFormat, text.Len(), n)
	}

	switch layout {
	case layoutPacked:
		p := packedBWT{n: int32(n) + 1}
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
		idx.bwt = p
	case layoutByte:
		bwt, err := binio.ReadSlice[byte](br, n+1)
		if err != nil {
			return nil, fmt.Errorf("%w: bwt: %v", ErrFormat, err)
		}
		if err := checkByteBWT(bwt, idx.sentPos); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		idx.bwt = newPackedBWT(bwt, 1)
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
	case occFlat:
		var occLen uint64
		if err := get(&occLen); err != nil || occLen > maxLen {
			return nil, fmt.Errorf("%w: occ length", ErrFormat)
		}
		occ, err := binio.ReadSlice[int32](br, occLen)
		if err != nil {
			return nil, fmt.Errorf("%w: occ: %v", ErrFormat, err)
		}
		idx.occ = occ
	case occTwoLevel:
		// 32-bit superblock counts, then 8-bit block counts; both are
		// skipped and flat checkpoints rebuilt from the BWT below.
		for _, width := range []uint64{4, 1} {
			var entries uint64
			if err := get(&entries); err != nil || entries > maxLen {
				return nil, fmt.Errorf("%w: two-level length", ErrFormat)
			}
			if _, err := br.Discard(int(entries * width)); err != nil {
				return nil, fmt.Errorf("%w: two-level counts: %v", ErrFormat, err)
			}
		}
		if err := idx.verifyPayload(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		idx.opts.OccRate = DefaultOccRate
		idx.occ = buildFlatOcc(idx.bwt.unpack(), DefaultOccRate, 1)
	default:
		return nil, fmt.Errorf("%w: occ layout %d", ErrFormat, occLayout)
	}
	idx.deriveOccShift()
	if err := idx.readSASamples(br); err != nil {
		return nil, err
	}
	if err := idx.verifyLoad(text); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return idx, nil
}

// checkByteBWT validates a byte-per-character BWT payload before it is
// packed, which could represent neither a junk value nor a second
// sentinel: every value must be a rank, and the one sentinel must sit
// at sentPos.
func checkByteBWT(bwt []byte, sentPos int32) error {
	for i, ch := range bwt {
		if ch >= alphabet.Size {
			return fmt.Errorf("bwt value %d at row %d", ch, i)
		}
		if (ch == alphabet.Sentinel) != (int32(i) == sentPos) {
			return fmt.Errorf("bwt row %d holds %d, sentinel expected at row %d", i, ch, sentPos)
		}
	}
	return nil
}

// verifyPayload checks the packed BWT against the header: one code per
// row, the sentinel where the header puts it, and code 0 in the
// sentinel's slot, which count and countAll rely on when they discount
// it.
func (idx *Index) verifyPayload() error {
	rows := idx.n + 1
	if idx.sentPos < 0 || int(idx.sentPos) >= rows {
		return fmt.Errorf("sentinel position %d outside %d rows", idx.sentPos, rows)
	}
	p := &idx.bwt
	if int(p.n) != rows || p.sentPos != idx.sentPos {
		return fmt.Errorf("packed header (n=%d sent=%d) disagrees with index (n=%d sent=%d)",
			p.n, p.sentPos, rows, idx.sentPos)
	}
	if len(p.words) != (rows+alphabet.CodesPerWord-1)/alphabet.CodesPerWord {
		return fmt.Errorf("packed payload %d words for %d rows", len(p.words), rows)
	}
	if code := p.code(p.sentPos); code != 0 {
		return fmt.Errorf("sentinel slot holds code %d, want 0", code)
	}
	return nil
}

// verifyLoad cross-checks the structures decoded from an untrusted
// stream against each other in O(n): the packed payload must match the
// header, the C array must be the prefix sums of the BWT's character
// counts, the rankall checkpoints must equal a fresh recount, and the
// LF mapping must form a single cycle through all n+1 rows whose
// recovered text positions match every stored SA sample and, for a
// standalone index given its text (ReadIndexReversed), whose recovered
// bases match the text's. An index that passes is fully internally
// consistent — Step, Locate and the LF walk cannot index out of range
// or loop forever on it — so a corrupt file is rejected here rather
// than surfacing as a panic deep in a search. The deeper (and slower)
// oracle cross-checks live behind the kminvariants build tag; this
// gate is cheap enough to run on every load.
func (idx *Index) verifyLoad(text *alphabet.Packed) error {
	if idx.rel != nil {
		if idx.sentPos < 0 || int(idx.sentPos) > idx.n {
			return fmt.Errorf("sentinel position %d outside %d rows", idx.sentPos, idx.n+1)
		}
		return idx.verifyRelativeLoad()
	}
	if err := idx.verifyPayload(); err != nil {
		return err
	}
	rows := idx.n + 1
	bwt := idx.bwt.unpack()
	var counts [alphabet.Size]int32
	for _, ch := range bwt {
		counts[ch]++
	}
	if err := idx.verifyCArray(counts); err != nil {
		return err
	}

	// Rankall checkpoints: recompute from the BWT and demand equality.
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

	return idx.verifyLFWalk(bwt, text)
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

// verifyLFWalk checks that the LF mapping, computed by one sequential
// scan of the materialized BWT, traces a single cycle visiting every
// row exactly once. The walk recovers the indexed text from its last
// position to its first, and checks what the index holds against it:
//   - The text position recovered at each marked row equals the stored
//     sample, and the sampled positions leave no gap Locate cannot
//     cross: position 0 is sampled, and so is one within SARate of
//     every sampled position and of the text's end. Then every Locate
//     walk of the loaded index meets a sample within SARate-1 steps.
//     A rank-only index holds no samples to check.
//   - When text is non-nil, the indexed text is its reverse, and each
//     recovered base must equal text's.
func (idx *Index) verifyLFWalk(bwt []byte, text *alphabet.Packed) error {
	rows := idx.n + 1
	marks := idx.saMarked
	if marks != nil && marks.Len() != rows {
		return fmt.Errorf("mark bitvector %d bits for %d rows", marks.Len(), rows)
	}
	if marks != nil && marks.Ones() == 0 {
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
	sampled := idx.n + 1 // the last sampled position the walk passed
	row := int32(0)      // row 0 holds the bare-sentinel suffix, text position n
	for pos := idx.n; ; pos-- {
		if visited.Get(int(row)) {
			return fmt.Errorf("LF cycle revisits row %d with %d positions left", row, pos+1)
		}
		visited.Set(int(row))
		if marks != nil && marks.Get(int(row)) {
			if got := idx.saSamples[marks.Rank1(int(row))]; got != int32(pos) {
				return fmt.Errorf("SA sample at row %d = %d, LF walk says %d", row, got, pos)
			}
			if sampled-pos > idx.opts.SARate {
				return fmt.Errorf("SA samples at positions %d and %d, more than SA rate %d apart", pos, sampled, idx.opts.SARate)
			}
			sampled = pos
		}
		if pos == 0 {
			break
		}
		// bwt[row] precedes position pos of the indexed text, which is
		// base n-pos of text.
		if text != nil && text.Get(idx.n-pos) != bwt[row] {
			return fmt.Errorf("text base %d is %c, the BWT says %c",
				idx.n-pos, alphabet.Byte(text.Get(idx.n-pos)), alphabet.Byte(bwt[row]))
		}
		row = lf[row]
	}
	if lf[row] != 0 {
		return fmt.Errorf("LF walk ends at row %d, not the sentinel row", lf[row])
	}
	if marks != nil && sampled != 0 {
		return fmt.Errorf("text position 0 is not sampled")
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
