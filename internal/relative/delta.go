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
// characters (16 int32s per 64 chars — 0.25 bytes/char of directory).
// The remainder is counted by alphabet.CountCodes, the 2-bit BWT's
// popcount kernel, over at most two words.
const occRate = 64

// ErrCorrupt reports a delta payload that fails structural validation.
var ErrCorrupt = errors.New("relative: corrupt delta")

// charSeq stores exception characters at 2 bits each, 32 per word in
// alphabet.Packed's layout. A BWT holds exactly one sentinel, so at
// most one exception character per side is a sentinel — its index is
// escaped out of band (sentAt) and the 2-bit codes only ever encode
// the four proper bases (code = rank-1).
type charSeq struct {
	words  []uint64
	n      int32
	sentAt int32 // index whose character is the sentinel, or -1
}

func newCharSeq(chars []byte) charSeq {
	s := charSeq{
		words:  make([]uint64, (len(chars)+alphabet.CodesPerWord-1)/alphabet.CodesPerWord),
		n:      int32(len(chars)),
		sentAt: -1,
	}
	for i, ch := range chars {
		code := uint64(0)
		if ch == alphabet.Sentinel {
			s.sentAt = int32(i)
		} else {
			code = uint64(ch - 1)
		}
		s.words[i/alphabet.CodesPerWord] |= code << (i % alphabet.CodesPerWord * 2)
	}
	return s
}

func (s *charSeq) at(i int32) byte {
	if i == s.sentAt {
		return alphabet.Sentinel
	}
	return byte(s.words[i/alphabet.CodesPerWord]>>(i%alphabet.CodesPerWord*2))&3 + 1
}

// count returns the occurrences of base rank x among characters
// [from, to).
func (s *charSeq) count(x byte, from, to int32) int32 {
	return alphabet.CountCode(s.words, x-1, from, to, s.sentAt)
}

// countAll adds the per-base counts of characters [from, to) to cnt.
func (s *charSeq) countAll(from, to int32, cnt *[alphabet.Bases]int32) {
	alphabet.CountCodes(s.words, from, to, s.sentAt, cnt)
}

// sizeBytes is the resident payload (the escape index rides in the
// struct header).
func (s *charSeq) sizeBytes() int { return len(s.words) * 8 }

// Delta expresses a tenant BWT as an alignment against a base BWT: a
// common subsequence (rows copied from the base) plus tenant-only
// insertions, mirrored by base-only deletions. TenantIns marks, per
// tenant row, whether the row is an insertion; BaseDel marks, per base
// row, whether the row is skipped. The characters of both exception
// sets are stored packed (2 bits each) with sampled occ checkpoints,
// so a tenant rank query becomes one base rank query plus two small
// corrections:
//
//	tenantOcc(x, i) = baseOcc(x, j) - occDel(x, jDel) + occIns(x, tIns)
//
// where Split(i) maps the tenant prefix [0, i) to the base prefix
// [0, j) covering the same common rows.
type Delta struct {
	TenantIns *bitvec.Rank // tenant rows that are insertions
	BaseDel   *bitvec.Rank // base rows that are deleted, with select-0 samples

	ins charSeq // characters of insertion rows, tenant order
	del charSeq // characters of deleted rows, base order

	insOcc []int32 // occ checkpoints over ins, 4 per occRate chars
	delOcc []int32 // occ checkpoints over del

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

// Split maps the tenant prefix [0, i) to its delta coordinates:
// tIns insertion rows fall inside it, the common rows it contains are
// exactly the base prefix [0, j) minus the jDel deleted rows inside
// that prefix.
func (d *Delta) Split(i int32) (tIns, j, jDel int32) {
	t := d.TenantIns.Rank1(int(i))
	cs := int(i) - t // common rows before tenant row i
	var bj int
	if cs > 0 {
		bj = d.BaseDel.Select0(cs) + 1 // one past the cs-th kept base row
	}
	return int32(t), int32(bj), int32(bj - cs)
}

// SplitFrom returns Split(hi) from the split (tIns, j, ·) of an
// earlier row lo <= hi without a select from the start of BaseDel: the
// common rows of [lo, hi) are selected forward from j. That scan grows
// with the rows it passes, so it suits narrow intervals.
func (d *Delta) SplitFrom(lo, hi, tIns, j int32) (tIns2, j2, jDel2 int32) {
	tIns2, j2 = int32(d.TenantIns.Rank1(int(hi))), j
	if c := hi - lo - (tIns2 - tIns); c > 0 { // common rows in [lo, hi)
		j2 = int32(d.BaseDel.Select0From(int(j), int(c))) + 1
	}
	return tIns2, j2, j2 - (hi - tIns2)
}

// BaseRow maps a common tenant row i (IsIns(i) must be false) to its
// base row.
func (d *Delta) BaseRow(i int32) int32 {
	cs := int(i) - d.TenantIns.Rank1(int(i)) // common rows strictly before i
	return int32(d.BaseDel.Select0(cs + 1))
}

// KeptFrom returns the first kept (not deleted) base row at or after
// j. For a common tenant row i with Split(i) = (·, j, ·) it is
// BaseRow(i), found by scanning BaseDel forward from j instead of a
// second select.
func (d *Delta) KeptFrom(j int32) int32 {
	return int32(d.BaseDel.Select0From(int(j), 1))
}

// InsChar returns the character of the rank-th insertion row (0-based).
func (d *Delta) InsChar(rank int32) byte { return d.ins.at(rank) }

// DelChar returns the character of the rank-th deleted row (0-based).
func (d *Delta) DelChar(rank int32) byte { return d.del.at(rank) }

// OccIns counts occurrences of base rank x among the first t insertion
// characters.
func (d *Delta) OccIns(x byte, t int32) int32 {
	return occAt(&d.ins, d.insOcc, x, t)
}

// OccDel counts occurrences of base rank x among the first t deleted
// characters.
func (d *Delta) OccDel(x byte, t int32) int32 {
	return occAt(&d.del, d.delOcc, x, t)
}

// OccInsAll returns per-base counts over the first t insertion chars.
func (d *Delta) OccInsAll(t int32) [alphabet.Bases]int32 {
	return occAllAt(&d.ins, d.insOcc, t)
}

// OccDelAll returns per-base counts over the first t deleted chars.
func (d *Delta) OccDelAll(t int32) [alphabet.Bases]int32 {
	return occAllAt(&d.del, d.delOcc, t)
}

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

func occAt(s *charSeq, occ []int32, x byte, t int32) int32 {
	chk := t / occRate
	return occ[chk*alphabet.Bases+int32(x-1)] + s.count(x, chk*occRate, t)
}

func occAllAt(s *charSeq, occ []int32, t int32) [alphabet.Bases]int32 {
	chk := t / occRate
	row := occ[chk*alphabet.Bases : chk*alphabet.Bases+alphabet.Bases]
	cnt := [alphabet.Bases]int32{row[0], row[1], row[2], row[3]}
	s.countAll(chk*occRate, t, &cnt)
	return cnt
}

// NoteBaseRead / NoteInsRead bump the per-delta read counters feeding
// the km_relative_* base-hit vs delta-correction metrics.
func (d *Delta) NoteBaseRead() { d.baseReads.Add(1) }
func (d *Delta) NoteInsRead()  { d.insReads.Add(1) }

// Reads returns the cumulative (base-hit, insertion-read) counters.
func (d *Delta) Reads() (base, ins int64) {
	return d.baseReads.Load(), d.insReads.Load()
}

// SizeBytes returns the resident delta payload: both marker bitvectors
// with their rank directories and BaseDel's select-0 samples, the
// packed exception characters, and their occ checkpoints.
func (d *Delta) SizeBytes() int {
	return d.TenantIns.SizeBytes() + d.BaseDel.SizeBytes() +
		d.ins.sizeBytes() + d.del.sizeBytes() +
		(len(d.insOcc)+len(d.delOcc))*4
}

// buildOcc samples cumulative per-base counts over s every occRate
// positions (checkpoint k covers s[:k*occRate]).
func buildOcc(s *charSeq) []int32 {
	nChk := int(s.n)/occRate + 1
	occ := make([]int32, 0, nChk*alphabet.Bases)
	var running [alphabet.Bases]int32
	for p := int32(0); ; p += occRate {
		occ = append(occ, running[:]...)
		if p+occRate > s.n {
			return occ
		}
		s.countAll(p, p+occRate, &running)
	}
}

func finishDelta(ins, del *bitvec.Vector, insChars, delChars []byte) *Delta {
	d := &Delta{
		TenantIns: bitvec.NewRank(ins),
		BaseDel:   bitvec.NewRankSelect0(del),
		ins:       newCharSeq(insChars),
		del:       newCharSeq(delChars),
	}
	d.insOcc = buildOcc(&d.ins)
	d.delOcc = buildOcc(&d.del)
	return d
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
	packed := make([]byte, 0, len(s.words)*8)
	for _, w := range s.words {
		packed = binary.LittleEndian.AppendUint64(packed, w)
	}
	return put(packed[:(s.n+3)/4])
}

// WriteTo serializes the delta payload (marker words and packed
// exception characters; the occ checkpoints and the select-0 samples
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
	words := make([]uint64, (n+alphabet.CodesPerWord-1)/alphabet.CodesPerWord)
	for i, b := range packed {
		words[i/8] |= uint64(b) << (i % 8 * 8)
	}
	return charSeq{words: words, n: int32(n), sentAt: int32(sent) - 1}, nil
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

	ti := bitvec.NewRank(insVec)
	bd := bitvec.NewRankSelect0(delVec)
	if ti.Ones() != int(ins.n) {
		return nil, fmt.Errorf("%w: %d insertion chars for %d marked rows", ErrCorrupt, ins.n, ti.Ones())
	}
	if bd.Ones() != int(del.n) {
		return nil, fmt.Errorf("%w: %d deletion chars for %d marked rows", ErrCorrupt, del.n, bd.Ones())
	}
	if int(tn)-ti.Ones() != int(bn)-bd.Ones() {
		return nil, fmt.Errorf("%w: common rows disagree (%d tenant, %d base)",
			ErrCorrupt, int(tn)-ti.Ones(), int(bn)-bd.Ones())
	}
	d := &Delta{TenantIns: ti, BaseDel: bd, ins: ins, del: del}
	d.insOcc = buildOcc(&d.ins)
	d.delOcc = buildOcc(&d.del)
	return d, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
