package fmindex

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/relative"
)

// The relative layout ("Reusing an FM-index", PAPERS.md): a tenant
// index stores no BWT or occ payload of its own — only a
// relative.Delta aligning its BWT against a shared base index, plus
// its own C array and Locate samples. Every rank/BWT accessor branches
// here, so backward search, LF walks, Locate, the bidirectional index
// and the invariant checkers all work unchanged over the bridged
// representation.

// relBWTAt reads tenant L[i] through the delta: insertion rows come
// from the exception characters, common rows from the base BWT.
func (idx *Index) relBWTAt(i int32) byte {
	d := idx.rel
	if d.IsIns(i) {
		d.NoteInsRead()
		return d.InsChar(int32(d.TenantIns.Rank1(int(i))))
	}
	d.NoteBaseRead()
	return idx.relBase.bwt.get(d.BaseRow(i))
}

// relOccAt answers a tenant rank query as one base rank query plus two
// exception-set corrections.
func (idx *Index) relOccAt(x byte, p int32) int32 {
	d := idx.rel
	tIns, j, jDel := d.Split(p)
	return idx.relBase.flatOccAt(x, j) - d.OccDel(x, jDel) + d.OccIns(x, tIns)
}

// relOccAll is relOccAt over all four bases sharing one Split.
func (idx *Index) relOccAll(p int32, cnt *[alphabet.Bases]int32) {
	tIns, j, jDel := idx.rel.Split(p)
	idx.relOccAllAt(tIns, j, jDel, cnt)
}

// relOccAllAt is relOccAll at the tenant row whose split is
// (tIns, j, jDel).
func (idx *Index) relOccAllAt(tIns, j, jDel int32, cnt *[alphabet.Bases]int32) {
	d := idx.rel
	idx.relBase.flatOccAll(j, cnt)
	del := d.OccDelAll(jDel)
	ins := d.OccInsAll(tIns)
	for x := 0; x < alphabet.Bases; x++ {
		cnt[x] += ins[x] - del[x]
	}
}

// narrowRows is the widest tenant interval whose StepAll derives the
// upper endpoint's split from the lower one's (Delta.SplitFrom)
// instead of splitting it afresh. Most intervals the M-tree expands
// are this narrow: for 100-base reads at k=2 against a 1% tenant of a
// 1 MiB genome, 70% of them.
const narrowRows = 64

// relStepAll is StepAll on a tenant. It splits the lower endpoint
// once; for a narrow interval it derives the upper endpoint's split
// from it and counts the rows in between — base characters, minus the
// deleted ones, plus the inserted ones — with the same word kernel,
// instead of a second select and three checkpoint reads.
func (idx *Index) relStepAll(iv Interval, out *[alphabet.Bases]Interval) {
	d := idx.rel
	tIns, j, jDel := d.Split(iv.Lo)
	var lo, hi [alphabet.Bases]int32
	idx.relOccAllAt(tIns, j, jDel, &lo)
	if iv.Hi-iv.Lo > narrowRows {
		idx.relOccAll(iv.Hi, &hi)
	} else if tIns2, j2, jDel2 := d.SplitFrom(iv.Lo, iv.Hi, tIns, j); j2-j > 2*narrowRows {
		// A run of deleted base rows lies between the endpoints;
		// counting it would cost more than the checkpoints.
		idx.relOccAllAt(tIns2, j2, jDel2, &hi)
	} else {
		var del [alphabet.Bases]int32
		hi = lo
		idx.relBase.bwt.countAll(j, j2, &hi)
		d.InsCountAll(tIns, tIns2, &hi)
		d.DelCountAll(jDel, jDel2, &del)
		for x := range hi {
			hi[x] -= del[x]
		}
	}
	for x := 0; x < alphabet.Bases; x++ {
		c := idx.c[x+1]
		out[x] = Interval{c + lo[x], c + hi[x]}
	}
}

// relStepSingleton is StepSingletonIf (and the LF step) on a tenant
// row i with one Split: it gives the rank of an insertion row among the
// insertions, the base row of a common row (the first kept row at or
// after j), and the base rank query for the child, which is skipped
// when the row's character is not wanted. Like relBWTAt it counts the
// character read once.
func (idx *Index) relStepSingleton(i int32, want byte) (x byte, child Interval, ok bool) {
	d := idx.rel
	tIns, j, jDel := d.Split(i)
	if d.IsIns(i) {
		d.NoteInsRead()
		x = d.InsChar(tIns)
	} else {
		d.NoteBaseRead()
		x = idx.relBase.bwt.get(d.KeptFrom(j))
	}
	if x == alphabet.Sentinel || want != AnyBase && x != want {
		return x, Interval{}, false
	}
	lo := idx.c[x] + idx.relBase.flatOccAt(x, j) - d.OccDel(x, jDel) + d.OccIns(x, tIns)
	return x, Interval{lo, lo + 1}, true
}

// relBWT materializes the tenant BWT by merging the base BWT with the
// exception sets in one O(rows) sweep (no read counters, no selects).
func (idx *Index) relBWT() []byte {
	d := idx.rel
	out := make([]byte, d.TenantRows())
	bi, insRank := 0, 0
	for i := range out {
		if d.TenantIns.Get(i) {
			out[i] = d.InsChar(int32(insRank))
			insRank++
			continue
		}
		for d.BaseDel.Get(bi) {
			bi++
		}
		out[i] = idx.relBase.bwtAt(int32(bi))
		bi++
	}
	return out
}

// IsRelative reports whether the index uses the relative layout.
func (idx *Index) IsRelative() bool { return idx.rel != nil }

// RelBase returns the shared base index (nil for standalone layouts).
func (idx *Index) RelBase() *Index { return idx.relBase }

// RelDelta returns the delta payload (nil for standalone layouts).
func (idx *Index) RelDelta() *relative.Delta { return idx.rel }

// Fingerprint returns the sha256 of the index's BWT characters, one
// rank per byte, whatever their storage. A relative container binds to
// its base through this hash, so a renamed or rebuilt base that no
// longer matches is rejected at load. A standalone BWT is hashed in
// chunks decoded from its packed words rather than materialized.
func (idx *Index) Fingerprint() [sha256.Size]byte {
	if idx.rel != nil {
		return sha256.Sum256(idx.relBWT())
	}
	h := sha256.New()
	var chunk [4096]byte
	for from := int32(0); from < idx.bwt.n; from += int32(len(chunk)) {
		buf := chunk[:min(len(chunk), int(idx.bwt.n-from))]
		idx.bwt.decode(buf, from)
		h.Write(buf)
	}
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}

// ReconstructText rebuilds the rank-encoded text the index was built
// over by walking the LF mapping from the sentinel row — the relative
// layout's substitute for a stored text payload.
func (idx *Index) ReconstructText() ([]byte, error) {
	out := make([]byte, idx.n)
	row := int32(0)
	for p := idx.n - 1; p >= 0; p-- {
		ch := idx.bwtAt(row)
		if ch == alphabet.Sentinel {
			return nil, fmt.Errorf("fmindex: LF reconstruction hit the sentinel at position %d", p)
		}
		out[p] = ch
		row = idx.lfStep(row)
	}
	return out, nil
}

// Alignment driver tuning. The context DFS keeps splitting a block
// while it holds more than alignBlockTarget combined rows (up to
// maxContextLevels characters of context — the adaptive depth is what
// keeps repeat-heavy blocks small enough to diff; a fixed average
// depth leaves the heavy repeat contexts thousands of rows wide and
// the diff below degenerates). Blocks longer than maxAlignBlock are
// split proportionally before the O(ND) diff runs; maxAlignD caps the
// edit budget per diff (a block needing more contributes no matches,
// which only costs delta bytes, never correctness).
const (
	alignBlockTarget = 512
	maxContextLevels = 32 // 2 bits of key per level — the uint64 budget
	maxAlignBlock    = 1 << 14
	maxAlignD        = 128
)

// MakeRelative expresses tenant as a delta against base and returns a
// new relative-layout index sharing base. The tenant index's own C
// array, sentinel position and Locate samples are kept; its BWT and
// occ payloads are replaced by the delta bridge. The result answers
// every query identically to tenant (checked here by materializing the
// bridged BWT).
func MakeRelative(base, tenant *Index) (*Index, error) {
	if base == nil || tenant == nil {
		return nil, fmt.Errorf("fmindex: MakeRelative needs both indexes")
	}
	if base.rel != nil {
		return nil, fmt.Errorf("fmindex: base index is itself relative")
	}
	baseBWT, tenBWT := base.BWT(), tenant.BWT()
	delta := buildDelta(base, tenant, baseBWT, tenBWT)
	rx := &Index{
		opts:      Options{SARate: tenant.opts.SARate},
		n:         tenant.n,
		c:         tenant.c,
		sentPos:   tenant.sentPos,
		saMarked:  tenant.saMarked,
		saSamples: tenant.saSamples,
		rel:       delta,
		relBase:   base,
	}
	got := rx.relBWT()
	if len(got) != len(tenBWT) {
		return nil, fmt.Errorf("fmindex: bridged BWT has %d rows, tenant %d", len(got), len(tenBWT))
	}
	for i := range got {
		if got[i] != tenBWT[i] {
			return nil, fmt.Errorf("fmindex: bridged BWT differs from tenant at row %d", i)
		}
	}
	return rx, nil
}

// buildDelta aligns the tenant BWT against the base BWT. Globally the
// two BWTs are permutations of near-identical texts, so a direct diff
// would see mostly noise; but rows that share a right context (the
// first t characters of their suffixes) land in the same lexicographic
// block in both indexes, and within a paired block the L characters
// run nearly parallel. The driver partitions both row spaces by
// t-character context (one backward-search DFS stepping both indexes
// together), pairs the blocks positionally, and diffs block against
// block — gap rows between blocks (suffixes shorter than t) are
// diffed by the same cursor sweep. baseBWT and tenBWT are the two
// indexes' materialized BWTs.
func buildDelta(base, tenant *Index, baseBWT, tenBWT []byte) *relative.Delta {
	bld := relative.NewBuilder(baseBWT, tenBWT)

	type blockPair struct {
		key      uint64
		base, tn Interval
	}
	var blocks []blockPair
	var dfs func(level int, key uint64, biv, tiv Interval)
	dfs = func(level int, key uint64, biv, tiv Interval) {
		if level == maxContextLevels ||
			int(biv.Hi-biv.Lo)+int(tiv.Hi-tiv.Lo) <= alignBlockTarget {
			blocks = append(blocks, blockPair{key, biv, tiv})
			return
		}
		for x := byte(alphabet.A); x <= alphabet.T; x++ {
			nb := base.Step(x, biv)
			nt := tenant.Step(x, tiv)
			if nb.Empty() && nt.Empty() {
				continue
			}
			// Step prepends: the new character becomes the FIRST of
			// the context, so it enters at the top of the key and the
			// accumulated context shifts down — keys stay left-aligned
			// (first context character most significant). Left-aligned
			// keys order blocks of different depths by context, which
			// is row order; block contexts form an antichain (a node
			// either recursed or became a block), so no key is a
			// prefix of another and ties cannot happen across blocks.
			dfs(level+1, key>>2|uint64(x-1)<<62, nb, nt)
		}
	}
	dfs(0, 0, base.Full(), tenant.Full())
	// DFS visit order is by reversed context; row order is by the
	// context read left to right. Sort.
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].key < blocks[j].key })

	gb, gt := 0, 0
	for _, blk := range blocks {
		alignRange(bld, baseBWT, tenBWT, gb, int(blk.base.Lo), gt, int(blk.tn.Lo))
		alignRange(bld, baseBWT, tenBWT, int(blk.base.Lo), int(blk.base.Hi), int(blk.tn.Lo), int(blk.tn.Hi))
		gb, gt = int(blk.base.Hi), int(blk.tn.Hi)
	}
	alignRange(bld, baseBWT, tenBWT, gb, len(baseBWT), gt, len(tenBWT))
	return bld.Finish()
}

// alignRange diffs baseBWT[b0:b1] against tenBWT[t0:t1], emitting
// global matched pairs into bld. Oversized ranges are split
// proportionally so each Myers run stays bounded.
func alignRange(bld *relative.Builder, baseBWT, tenBWT []byte, b0, b1, t0, t1 int) {
	if b0 >= b1 || t0 >= t1 {
		return
	}
	if (b1-b0)+(t1-t0) > maxAlignBlock {
		bm := (b0 + b1) / 2
		tm := t0 + (t1-t0)*(bm-b0)/(b1-b0)
		alignRange(bld, baseBWT, tenBWT, b0, bm, t0, tm)
		alignRange(bld, baseBWT, tenBWT, bm, b1, tm, t1)
		return
	}
	matched := 0
	relative.Common(baseBWT[b0:b1], tenBWT[t0:t1], maxAlignD, func(ai, bi int) {
		matched++
		bld.Match(b0+ai, t0+bi)
	})
	// A block whose true edit distance exceeds maxAlignD yields nothing
	// — common in repeat contexts too heavy for even the deepest DFS
	// level. Bisecting halves the edit mass per piece; recursion bottoms
	// out where the pieces either fit the budget or are too small to be
	// worth saving.
	if matched == 0 && (b1-b0)+(t1-t0) > 256 {
		// Independent midpoints (not proportional): the failed diff
		// means positional mapping is noise anyway, and halving each
		// side separately guarantees the combined size shrinks even
		// when one side is a sliver.
		bm, tm := (b0+b1)/2, (t0+t1)/2
		alignRange(bld, baseBWT, tenBWT, b0, bm, t0, tm)
		alignRange(bld, baseBWT, tenBWT, bm, b1, tm, t1)
	}
}

// Relative-index serialization: the inner payload embedded in the
// public container (saveload_relative.go). The base index itself is
// not stored — the caller resolves and supplies it at load.

const relIndexMagic = uint32(0xB3711D02) // "BWT relative index" v1

// WriteRelativeTo serializes the tenant-local payload of a relative
// index: header, C array, delta, and Locate samples.
func (idx *Index) WriteRelativeTo(w io.Writer) (int64, error) {
	if idx.rel == nil {
		return 0, fmt.Errorf("fmindex: WriteRelativeTo on a non-relative index")
	}
	cw := &countWriter{w: bufio.NewWriter(w)}
	put := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }
	if err := firstErr(
		put(relIndexMagic),
		put(uint32(idx.opts.SARate)),
		put(uint64(idx.n)),
		put(idx.sentPos),
		put(idx.c[:]),
	); err != nil {
		return cw.n, err
	}
	if _, err := idx.rel.WriteTo(cw); err != nil {
		return cw.n, err
	}
	if err := idx.writeSASamples(put); err != nil {
		return cw.n, err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadRelativeIndex deserializes a payload written by WriteRelativeTo,
// binding it to the supplied base index, and fully verifies the result
// (delta geometry, C array census, LF cycle, every SA sample) so a
// corrupt stream is rejected here instead of misbehaving in a search.
func ReadRelativeIndex(r io.Reader, base *Index) (*Index, error) {
	if base == nil || base.rel != nil {
		return nil, fmt.Errorf("%w: relative payload needs a standalone base index", ErrFormat)
	}
	br := bufio.NewReader(r)
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic, saRate uint32
	var n uint64
	idx := &Index{relBase: base}
	if err := firstErr(get(&magic), get(&saRate), get(&n), get(&idx.sentPos)); err != nil {
		return nil, fmt.Errorf("%w: relative header: %v", ErrFormat, err)
	}
	if magic != relIndexMagic {
		return nil, fmt.Errorf("%w: relative magic %#x", ErrFormat, magic)
	}
	if n > maxLen || saRate > maxRate {
		return nil, fmt.Errorf("%w: n %d sa rate %d", ErrFormat, n, saRate)
	}
	if saRate < 1 {
		return nil, fmt.Errorf("%w: sa rate %d", ErrFormat, saRate)
	}
	idx.n = int(n)
	idx.opts = Options{SARate: int(saRate)}
	if err := get(idx.c[:]); err != nil {
		return nil, fmt.Errorf("%w: c array: %v", ErrFormat, err)
	}
	delta, err := relative.ReadDelta(br, idx.n+1, base.n+1)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	idx.rel = delta
	if err := idx.readSASamples(br); err != nil {
		return nil, err
	}
	if err := idx.verifyLoad(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return idx, nil
}

// verifyRelativeLoad is the relative-layout arm of verifyLoad: the
// delta's structural invariants were checked by ReadDelta, so what
// remains is whole-index consistency over the materialized BWT —
// census, sentinel position, C prefix sums, and the LF/SA-sample walk.
func (idx *Index) verifyRelativeLoad() error {
	rows := idx.n + 1
	if idx.rel.TenantRows() != rows {
		return fmt.Errorf("delta spans %d tenant rows, index has %d", idx.rel.TenantRows(), rows)
	}
	if idx.rel.BaseRows() != idx.relBase.n+1 {
		return fmt.Errorf("delta spans %d base rows, base has %d", idx.rel.BaseRows(), idx.relBase.n+1)
	}
	bwt := idx.relBWT()
	var counts [alphabet.Size]int32
	for i, ch := range bwt {
		if ch >= alphabet.Size {
			return fmt.Errorf("bwt value %d at row %d", ch, i)
		}
		if ch == alphabet.Sentinel && int32(i) != idx.sentPos {
			return fmt.Errorf("stray sentinel at row %d (header says %d)", i, idx.sentPos)
		}
		counts[ch]++
	}
	if counts[alphabet.Sentinel] != 1 {
		return fmt.Errorf("%d sentinels in bwt", counts[alphabet.Sentinel])
	}
	if err := idx.verifyCArray(counts); err != nil {
		return err
	}
	return idx.verifySASamples(bwt)
}
