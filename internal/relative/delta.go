package relative

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/binio"
	"bwtmatch/internal/bitvec"
)

// occRate is the checkpoint spacing of the exception-character occ
// tables: one cumulative count per base every occRate exception
// characters, stored beside those characters' codes (seqBlock). The
// remainder is counted by alphabet.CountCodes, the 2-bit BWT's
// popcount kernel, over at most the block's two words.
const occRate = 64

// ErrCorrupt reports a delta payload that fails structural validation.
var ErrCorrupt = errors.New("relative: corrupt delta")

// seqBlock holds occRate exception characters: the per-base counts of
// the characters before the block and the block's 2-bit codes, in
// alphabet.Packed's layout. At 32 bytes, two blocks share a cache line,
// so a correction reads its checkpoint and the codes it completes with
// one miss.
type seqBlock struct {
	occ   [alphabet.Bases]int32
	codes [occRate / alphabet.CodesPerWord]uint64
}

// charSeq stores exception characters at 2 bits each in seqBlocks. A
// BWT holds exactly one sentinel, so at most one exception character
// per side is a sentinel — its index is escaped out of band (sentAt)
// and the 2-bit codes only ever encode the four proper bases
// (code = rank-1). There are n/occRate+1 blocks, so a checkpoint
// exists for every prefix length up to n.
type charSeq struct {
	blocks []seqBlock
	n      int32
	sentAt int32 // index whose character is the sentinel, or -1
}

func newCharSeq(chars []byte) charSeq {
	s := charSeq{blocks: make([]seqBlock, len(chars)/occRate+1), n: int32(len(chars)), sentAt: -1}
	for i, ch := range chars {
		code := uint64(0)
		if ch == alphabet.Sentinel {
			s.sentAt = int32(i)
		} else {
			code = uint64(ch - 1)
		}
		s.blocks[i/occRate].codes[i%occRate/alphabet.CodesPerWord] |= code << (i % alphabet.CodesPerWord * 2)
	}
	s.fillOcc()
	return s
}

// fillOcc sets each block's checkpoint to the per-base counts of the
// characters before it.
func (s *charSeq) fillOcc() {
	var running [alphabet.Bases]int32
	for b := range s.blocks {
		s.blocks[b].occ = running
		from := int32(b) * occRate
		s.countAll(from, min(from+occRate, s.n), &running)
	}
}

func (s *charSeq) at(i int32) byte {
	if i == s.sentAt {
		return alphabet.Sentinel
	}
	w := s.blocks[i/occRate].codes[i%occRate/alphabet.CodesPerWord]
	return byte(w>>(i%alphabet.CodesPerWord*2))&3 + 1
}

// occ returns the occurrences of base rank x among the first t
// characters: one block's checkpoint plus a count of its codes.
func (s *charSeq) occ(x byte, t int32) int32 {
	b := &s.blocks[t/occRate]
	from := t &^ (occRate - 1)
	return b.occ[x-1] + alphabet.CountCode(b.codes[:], x-1, 0, t-from, s.sentAt-from)
}

// occAll is occ for all four bases.
func (s *charSeq) occAll(t int32) [alphabet.Bases]int32 {
	b := &s.blocks[t/occRate]
	from := t &^ (occRate - 1)
	cnt := b.occ
	alphabet.CountCodes(b.codes[:], 0, t-from, s.sentAt-from, &cnt)
	return cnt
}

// count returns the occurrences of base rank x among characters
// [from, to), counting the codes of each block the range touches.
func (s *charSeq) count(x byte, from, to int32) int32 {
	var n int32
	for from < to {
		base := from &^ (occRate - 1)
		end := min(to, base+occRate)
		n += alphabet.CountCode(s.blocks[base/occRate].codes[:], x-1, from-base, end-base, s.sentAt-base)
		from = end
	}
	return n
}

// countAll adds the per-base counts of characters [from, to) to cnt.
func (s *charSeq) countAll(from, to int32, cnt *[alphabet.Bases]int32) {
	for from < to {
		base := from &^ (occRate - 1)
		end := min(to, base+occRate)
		alphabet.CountCodes(s.blocks[base/occRate].codes[:], from-base, end-base, s.sentAt-base, cnt)
		from = end
	}
}

// sizeBytes is the resident payload, 32 bytes per block (the escape
// index rides in the struct header).
func (s *charSeq) sizeBytes() int { return len(s.blocks) * 32 }

// dirRows is the spacing of the split directory: the tenant rows
// between two entries, bitvec's rank superblock.
const dirRows = bitvec.SuperblockBits

// splitEntry is the split directory's entry for tenant row dirRows·s:
// the insertion rows before it (TenantIns's rank checkpoint) and the j
// of its Split.
type splitEntry struct {
	t, j uint32
}

// Delta expresses a tenant BWT as an alignment against a base BWT: a
// common subsequence (rows copied from the base) plus tenant-only
// insertions, mirrored by base-only deletions. TenantIns marks, per
// tenant row, whether the row is an insertion; BaseDel marks, per base
// row, whether the row is skipped. The characters of both exception
// sets are stored packed (2 bits each) beside sampled occ checkpoints,
// so a tenant rank query becomes one base rank query plus two small
// corrections:
//
//	tenantOcc(x, i) = baseOcc(x, j) - occDel(x, jDel) + occIns(x, tIns)
//
// where Split(i) maps the tenant prefix [0, i) to the base prefix
// [0, j) covering the same common rows.
type Delta struct {
	TenantIns *bitvec.Vector // tenant rows that are insertions
	BaseDel   *bitvec.Rank   // base rows that are deleted

	// dir is TenantIns's rank directory with each checkpoint's split
	// beside it, one entry per dirRows tenant rows (and one for row
	// TenantRows()); rebuilt on load, never serialized.
	dir []splitEntry

	ins charSeq // characters of insertion rows, tenant order
	del charSeq // characters of deleted rows, base order

	baseReads atomic.Int64 // BWT reads answered from the base
	insReads  atomic.Int64 // BWT reads answered from the insertion set
}

// TenantRows returns the tenant row count (tenant text length + 1).
func (d *Delta) TenantRows() int { return d.TenantIns.Len() }

// BaseRows returns the base row count (base text length + 1).
func (d *Delta) BaseRows() int { return d.BaseDel.Len() }

// InsLen and DelLen return the exception-set sizes.
func (d *Delta) InsLen() int { return int(d.ins.n) }
func (d *Delta) DelLen() int { return int(d.del.n) }

// IsIns reports whether tenant row i is an insertion.
func (d *Delta) IsIns(i int32) bool { return d.TenantIns.Get(int(i)) }

// InsRank returns the number of insertion rows before tenant row i.
func (d *Delta) InsRank(i int32) int32 {
	return int32(d.dir[i/dirRows].t) + int32(d.TenantIns.RankInSuperblock(int(i)))
}

// Split maps the tenant prefix [0, i) to its delta coordinates:
// tIns insertion rows fall inside it, the common rows it contains are
// exactly the base prefix [0, j) minus the jDel deleted rows inside
// that prefix. One directory entry gives the split of the last tenant
// row at a multiple of dirRows; the common rows since then are
// selected forward from its j, by a short scan of BaseDel.
func (d *Delta) Split(i int32) (tIns, j, jDel int32) {
	e := d.dir[i/dirRows]
	tIns = int32(e.t) + int32(d.TenantIns.RankInSuperblock(int(i)))
	j = int32(e.j)
	if c := i%dirRows - (tIns - int32(e.t)); c > 0 { // common rows since the entry
		j = int32(d.BaseDel.Select0From(int(j), int(c))) + 1
	}
	return tIns, j, j - (i - tIns)
}

// SplitFrom returns Split(hi) from the split (tIns, j, ·) of an
// earlier row lo <= hi: the common rows of [lo, hi) are selected
// forward from j. That scan grows with the rows it passes, so it suits
// narrow intervals.
func (d *Delta) SplitFrom(lo, hi, tIns, j int32) (tIns2, j2, jDel2 int32) {
	tIns2, j2 = d.InsRank(hi), j
	if c := hi - lo - (tIns2 - tIns); c > 0 { // common rows in [lo, hi)
		j2 = int32(d.BaseDel.Select0From(int(j), int(c))) + 1
	}
	return tIns2, j2, j2 - (hi - tIns2)
}

// BaseRow maps a common tenant row i (IsIns(i) must be false) to its
// base row.
func (d *Delta) BaseRow(i int32) int32 {
	_, j, _ := d.Split(i)
	return d.KeptFrom(j)
}

// KeptFrom returns the first kept (not deleted) base row at or after
// j. For a common tenant row i with Split(i) = (·, j, ·) it is
// BaseRow(i), found by scanning BaseDel forward from j.
func (d *Delta) KeptFrom(j int32) int32 {
	return int32(d.BaseDel.Select0From(int(j), 1))
}

// InsChar returns the character of the rank-th insertion row (0-based).
func (d *Delta) InsChar(rank int32) byte { return d.ins.at(rank) }

// DelChar returns the character of the rank-th deleted row (0-based).
func (d *Delta) DelChar(rank int32) byte { return d.del.at(rank) }

// OccIns counts occurrences of base rank x among the first t insertion
// characters.
func (d *Delta) OccIns(x byte, t int32) int32 { return d.ins.occ(x, t) }

// OccDel counts occurrences of base rank x among the first t deleted
// characters.
func (d *Delta) OccDel(x byte, t int32) int32 { return d.del.occ(x, t) }

// OccInsAll returns per-base counts over the first t insertion chars.
func (d *Delta) OccInsAll(t int32) [alphabet.Bases]int32 { return d.ins.occAll(t) }

// OccDelAll returns per-base counts over the first t deleted chars.
func (d *Delta) OccDelAll(t int32) [alphabet.Bases]int32 { return d.del.occAll(t) }

// InsCount and DelCount count base rank x among insertion (deleted)
// chars [from, to), counting the range alone, without a checkpoint.
func (d *Delta) InsCount(x byte, from, to int32) int32 { return d.ins.count(x, from, to) }
func (d *Delta) DelCount(x byte, from, to int32) int32 { return d.del.count(x, from, to) }

// InsCountAll adds the per-base counts of insertion chars [from, to)
// to cnt, counting the range alone, without a checkpoint.
func (d *Delta) InsCountAll(from, to int32, cnt *[alphabet.Bases]int32) {
	d.ins.countAll(from, to, cnt)
}

// DelCountAll adds the per-base counts of deleted chars [from, to) to
// cnt, counting the range alone, without a checkpoint.
func (d *Delta) DelCountAll(from, to int32, cnt *[alphabet.Bases]int32) {
	d.del.countAll(from, to, cnt)
}

// NoteBaseRead / NoteInsRead bump the per-delta read counters feeding
// the km_relative_* base-hit vs delta-correction metrics.
func (d *Delta) NoteBaseRead() { d.baseReads.Add(1) }
func (d *Delta) NoteInsRead()  { d.insReads.Add(1) }

// Reads returns the cumulative (base-hit, insertion-read) counters.
func (d *Delta) Reads() (base, ins int64) {
	return d.baseReads.Load(), d.insReads.Load()
}

// SizeBytes returns the resident delta payload: both marker vectors,
// BaseDel's rank directory, the split directory, and the exception
// blocks.
func (d *Delta) SizeBytes() int {
	return d.TenantIns.SizeBytes() + d.BaseDel.SizeBytes() +
		len(d.dir)*8 +
		d.ins.sizeBytes() + d.del.sizeBytes()
}

// newDelta freezes validated markers and exception sets into a Delta
// and builds its split directory in one sweep of both marker vectors.
func newDelta(ins *bitvec.Vector, del *bitvec.Rank, insSeq, delSeq charSeq) *Delta {
	d := &Delta{TenantIns: ins, BaseDel: del, ins: insSeq, del: delSeq}
	d.dir = splitDir(ins, del)
	return d
}

// splitDir computes the split directory: the insertion count and the
// Split j at every dirRows-th tenant row, with a base cursor that
// passes each common row's deleted predecessors and then the row.
func splitDir(ins *bitvec.Vector, del *bitvec.Rank) []splitEntry {
	rows := ins.Len()
	dir := make([]splitEntry, rows/dirRows+1)
	var t, j uint32
	for i := 0; ; i++ {
		if i%dirRows == 0 {
			dir[i/dirRows] = splitEntry{t, j}
		}
		if i == rows {
			return dir
		}
		if ins.Get(i) {
			t++
			continue
		}
		for del.Get(int(j)) {
			j++
		}
		j++
	}
}

func finishDelta(ins, del *bitvec.Vector, insChars, delChars []byte) *Delta {
	return newDelta(ins, bitvec.NewRank(del), newCharSeq(insChars), newCharSeq(delChars))
}

// Builder accumulates an alignment between a base BWT and a tenant BWT
// from strictly increasing Match calls and finishes into a Delta.
// Rows skipped over by the cursors are recorded as deletions
// (base side) and insertions (tenant side).
type Builder struct {
	base, tenant []byte
	ins, del     *bitvec.Vector
	insChars     []byte
	delChars     []byte
	curB, curT   int
}

// NewBuilder starts an alignment of tenant against base (both full
// rank-encoded BWTs including their sentinels).
func NewBuilder(base, tenant []byte) *Builder {
	return &Builder{
		base:   base,
		tenant: tenant,
		ins:    bitvec.New(len(tenant)),
		del:    bitvec.New(len(base)),
	}
}

// Match records that base row bi and tenant row ti hold the same
// character and are aligned. Calls must come in strictly increasing
// order on both sides; out-of-order or unequal pairs are ignored (the
// rows fall through to the exception sets, which is always correct).
func (b *Builder) Match(bi, ti int) {
	if bi < b.curB || ti < b.curT || b.base[bi] != b.tenant[ti] {
		return
	}
	for ; b.curB < bi; b.curB++ {
		b.del.Set(b.curB)
		b.delChars = append(b.delChars, b.base[b.curB])
	}
	for ; b.curT < ti; b.curT++ {
		b.ins.Set(b.curT)
		b.insChars = append(b.insChars, b.tenant[b.curT])
	}
	b.curB, b.curT = bi+1, ti+1
}

// Finish consumes the unmatched tails and freezes the Delta.
func (b *Builder) Finish() *Delta {
	for ; b.curB < len(b.base); b.curB++ {
		b.del.Set(b.curB)
		b.delChars = append(b.delChars, b.base[b.curB])
	}
	for ; b.curT < len(b.tenant); b.curT++ {
		b.ins.Set(b.curT)
		b.insChars = append(b.insChars, b.tenant[b.curT])
	}
	return finishDelta(b.ins, b.del, b.insChars, b.delChars)
}

// writeSeq serializes one packed char sequence: count, escape index
// (+1, 0 meaning none), packed codes — four per byte, the first
// ⌈n/4⌉ bytes of the little-endian words.
func writeSeq(put func(v any) error, s *charSeq) error {
	if err := put(uint64(s.n)); err != nil {
		return err
	}
	if err := put(uint64(s.sentAt + 1)); err != nil {
		return err
	}
	packed := make([]byte, 0, len(s.blocks)*occRate/4)
	for _, b := range s.blocks {
		for _, w := range b.codes {
			packed = binary.LittleEndian.AppendUint64(packed, w)
		}
	}
	return put(packed[:(s.n+3)/4])
}

// WriteTo serializes the delta payload (marker words and packed
// exception characters; the occ checkpoints and the split directory
// are rebuilt on load).
func (d *Delta) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	insWords := d.TenantIns.Words()
	delWords := d.BaseDel.Words()
	if err := firstErr(
		put(uint64(d.TenantIns.Len())),
		put(uint64(d.BaseDel.Len())),
		put(uint64(len(insWords))),
		put(insWords),
		put(uint64(len(delWords))),
		put(delWords),
		writeSeq(put, &d.ins),
		writeSeq(put, &d.del),
	); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// readSeq deserializes one packed char sequence of at most maxChars
// characters, validating the escape index and that codes beyond the
// count are zero (so equal deltas have equal serializations).
func readSeq(br *bufio.Reader, maxChars uint64, side string) (charSeq, error) {
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var n, sent uint64
	if err := firstErr(get(&n), get(&sent)); err != nil {
		return charSeq{}, fmt.Errorf("%w: %s chars header: %v", ErrCorrupt, side, err)
	}
	if n > maxChars || sent > n {
		return charSeq{}, fmt.Errorf("%w: %s chars count %d escape %d", ErrCorrupt, side, n, sent)
	}
	packed, err := binio.ReadSlice[byte](br, (n+3)/4)
	if err != nil {
		return charSeq{}, fmt.Errorf("%w: %s chars: %v", ErrCorrupt, side, err)
	}
	if rem := n % 4; rem != 0 && packed[len(packed)-1]>>(rem*2) != 0 {
		return charSeq{}, fmt.Errorf("%w: stale %s char codes past %d", ErrCorrupt, side, n)
	}
	s := charSeq{blocks: make([]seqBlock, n/occRate+1), n: int32(n), sentAt: int32(sent) - 1}
	for i, b := range packed { // 16 bytes of codes per block, 8 per word
		s.blocks[i/16].codes[i%16/8] |= uint64(b) << (i % 8 * 8)
	}
	s.fillOcc()
	return s, nil
}

// ReadDelta deserializes a delta written by WriteTo and validates it
// against the expected row counts: the marker vectors must span
// exactly tenantRows and baseRows bits, the exception sequences must
// match the marker popcounts, and both sides must keep the same number
// of common rows. Violations wrap ErrCorrupt.
func ReadDelta(r io.Reader, tenantRows, baseRows int) (*Delta, error) {
	br := bufio.NewReader(r)
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	const maxLen = 1 << 34
	var tn, bn, insWords, delWords uint64
	if err := firstErr(get(&tn), get(&bn)); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if int(tn) != tenantRows || int(bn) != baseRows {
		return nil, fmt.Errorf("%w: rows %dx%d, want %dx%d", ErrCorrupt, tn, bn, tenantRows, baseRows)
	}
	if err := get(&insWords); err != nil || insWords > maxLen || insWords != uint64(tn+63)/64 {
		return nil, fmt.Errorf("%w: insertion marker length %d for %d rows", ErrCorrupt, insWords, tn)
	}
	iw, err := binio.ReadSlice[uint64](br, insWords)
	if err != nil {
		return nil, fmt.Errorf("%w: insertion markers: %v", ErrCorrupt, err)
	}
	if err := get(&delWords); err != nil || delWords > maxLen || delWords != uint64(bn+63)/64 {
		return nil, fmt.Errorf("%w: deletion marker length %d for %d rows", ErrCorrupt, delWords, bn)
	}
	dw, err := binio.ReadSlice[uint64](br, delWords)
	if err != nil {
		return nil, fmt.Errorf("%w: deletion markers: %v", ErrCorrupt, err)
	}
	insVec := bitvec.FromWords(iw, int(tn))
	delVec := bitvec.FromWords(dw, int(bn))
	for i := int(tn); i < len(iw)*64; i++ {
		if insVec.Get(i) {
			return nil, fmt.Errorf("%w: stale insertion marker bit %d", ErrCorrupt, i)
		}
	}
	for i := int(bn); i < len(dw)*64; i++ {
		if delVec.Get(i) {
			return nil, fmt.Errorf("%w: stale deletion marker bit %d", ErrCorrupt, i)
		}
	}
	ins, err := readSeq(br, tn, "insertion")
	if err != nil {
		return nil, err
	}
	del, err := readSeq(br, bn, "deletion")
	if err != nil {
		return nil, err
	}

	insOnes := insVec.Count()
	bd := bitvec.NewRank(delVec)
	if insOnes != int(ins.n) {
		return nil, fmt.Errorf("%w: %d insertion chars for %d marked rows", ErrCorrupt, ins.n, insOnes)
	}
	if bd.Ones() != int(del.n) {
		return nil, fmt.Errorf("%w: %d deletion chars for %d marked rows", ErrCorrupt, del.n, bd.Ones())
	}
	if int(tn)-insOnes != int(bn)-bd.Ones() {
		return nil, fmt.Errorf("%w: common rows disagree (%d tenant, %d base)",
			ErrCorrupt, int(tn)-insOnes, int(bn)-bd.Ones())
	}
	return newDelta(insVec, bd, ins, del), nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
