// Package fmindex implements the BWT-array index of the paper's §III: the
// Burrows–Wheeler transform of a (rank-encoded) text, the first-column C
// array, sampled "rankall" occurrence tables, the backward-search step
// search(x, L⟨...⟩), and occurrence locating via a sampled suffix array.
//
// The text handed to Build must already be rank-encoded over
// internal/alphabet ($=0 < a < c < g < t); Build appends the sentinel
// itself. Following the paper's storage scheme, the BWT is stored 3 bits
// per character (2-bit base codes plus the sentinel handled out of band)
// and one rankall value per character is checkpointed every OccRate
// elements of L.
package fmindex

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/bitvec"
	"bwtmatch/internal/obs"
	"bwtmatch/internal/relative"
	"bwtmatch/internal/suffixarray"
)

// Options control the space/time trade-offs of the index.
type Options struct {
	// OccRate is the rankall checkpoint spacing: one cumulative count per
	// character is stored every OccRate positions of L; ranks in between
	// are completed by scanning at most OccRate-1 characters. The paper
	// stores "4 rankall values for every 4 elements" in its experiments
	// (rate 4) and discusses sparser sampling as a space saving (§III-A).
	OccRate int
	// SARate is the suffix-array sampling rate used by Locate: every
	// SARate-th text position is kept. Smaller is faster, larger smaller.
	SARate int
	// PackedBWT stores the BWT at 2 bits per character and counts
	// occurrences with word-parallel popcounts instead of byte scans.
	// It cuts the BWT payload 4x and is the faster layout at sparse
	// OccRate settings (>= 32), where the scan between checkpoints is
	// long.
	PackedBWT bool
	// TwoLevelOcc replaces the flat rankall table (the paper's layout,
	// 32 bits per character per OccRate positions) with a hierarchical
	// directory: absolute 32-bit counts every 256 positions plus
	// relative 8-bit counts every 16 — ~2.5 bits/base instead of 32 at
	// OccRate 4, with scans of at most 15 characters. OccRate is ignored
	// when set.
	TwoLevelOcc bool
	// Workers is the goroutine count for every parallelizable phase of
	// Build: the suffix array itself (pDC3, suffixarray.BuildParallel,
	// bit-identical to the serial SA-IS build) and everything after it
	// (BWT extraction, occ checkpoints, SA sampling, packing). 0 or 1
	// builds serially with SA-IS. Workers affects construction only; it
	// is not serialized with the index.
	Workers int
	// Phases, when non-nil, accumulates the wall-clock breakdown of the
	// construction phases (DESIGN.md §12): a serial sequence of builds
	// (the streaming shard builder) sums into one sink. Not
	// synchronized — do not share one sink across concurrent builds.
	// Construction-only, never serialized.
	Phases *BuildPhases
}

// BuildPhases is the wall-clock breakdown of one Build call. SANS is
// the suffix-array construction, BWTNS the L-column extraction plus the
// C array, OccNS the rankall checkpoint tables, PackNS the 2-bit BWT
// packing plus the Locate SA samples. The sum can undershoot the total
// build time slightly (allocation and validation sit between phases).
type BuildPhases struct {
	SANS   int64
	BWTNS  int64
	OccNS  int64
	PackNS int64
}

// DefaultOptions mirror the paper's experimental configuration.
func DefaultOptions() Options { return Options{OccRate: 4, SARate: 16} }

func (o *Options) normalize() error {
	if o.OccRate == 0 {
		o.OccRate = 4
	}
	if o.SARate == 0 {
		o.SARate = 16
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.OccRate < 1 || o.SARate < 1 {
		return fmt.Errorf("fmindex: invalid options %+v", *o)
	}
	return nil
}

// Interval is a half-open interval [Lo, Hi) of rows of the Burrows–Wheeler
// matrix (equivalently of the suffix array of text+$). It is the absolute
// form of the paper's pairs ⟨x, [α, β]⟩: the pair's character x and ranks
// α..β are recovered by which C-bucket the interval lies in.
type Interval struct {
	Lo, Hi int32
}

// Empty reports whether the interval contains no rows.
func (iv Interval) Empty() bool { return iv.Lo >= iv.Hi }

// Len returns the number of rows.
func (iv Interval) Len() int { return int(iv.Hi - iv.Lo) }

// ErrInvalidText reports a text containing the sentinel rank.
var ErrInvalidText = errors.New("fmindex: text must not contain the sentinel")

// Index is a BWT-array index over one text.
type Index struct {
	opts Options
	n    int // text length, excluding sentinel

	bwt    []byte // BWT of text+$, rank-encoded; nil when packed is used
	packed *packedBWT

	c [alphabet.Size + 1]int32 // c[x] = #chars with rank < x in text+$

	occ      []int32      // flat occ checkpoints: occ[(p/OccRate)*Bases + (x-1)]
	occ2     *twoLevelOcc // hierarchical alternative; occ is nil when set
	occShift int32        // log2(OccRate) when it is a power of two, else -1
	sentPos  int32        // position of the sentinel within bwt

	saMarked  *bitvec.Rank // rows whose SA value is sampled
	saSamples []int32      // SA values of marked rows, in row order

	// Relative layout (relative.go): the BWT and occ queries are bridged
	// to relBase through rel instead of local bwt/packed/occ payloads,
	// which are all nil. SA samples and the C array stay tenant-local.
	rel     *relative.Delta
	relBase *Index
}

// Build constructs the index over a rank-encoded text (values 1..4).
// With opts.Workers > 1 every phase after the suffix array runs across
// that many goroutines over disjoint ranges (see parallel.go).
func Build(text []byte, opts Options) (*Index, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if err := validateText(text, workers); err != nil {
		return nil, err
	}
	n := len(text)
	idx := &Index{opts: opts, n: n}
	idx.deriveOccShift()

	// Suffix array of text+$; the sentinel suffix sorts first, so SA row 0
	// is position n and rows 1..n are Build(text) shifted. With Workers
	// > 1 the array comes from pDC3 (suffixarray.BuildParallel), which
	// is bit-identical to the serial SA-IS build — the suffix array of a
	// text is unique, so the choice of algorithm never leaks into the
	// index bytes.
	var ph BuildPhases
	phaseStart := time.Now()
	sa := make([]int32, n+1)
	sa[0] = int32(n)
	if workers > 1 {
		copy(sa[1:], suffixarray.BuildParallel(text, workers))
	} else {
		copy(sa[1:], suffixarray.Build(text))
	}
	phaseStart = markPhase(&ph.SANS, phaseStart)

	// BWT: L[i] = text[sa[i]-1], or $ when sa[i] == 0 (paper eq. (3)).
	idx.bwt = make([]byte, n+1)
	idx.sentPos = extractBWT(idx.bwt, sa, text, workers)

	// C array over text+$.
	counts := countRanks(text, workers)
	var sum int32
	for x := 0; x < alphabet.Size; x++ {
		idx.c[x] = sum
		sum += counts[x]
	}
	idx.c[alphabet.Size] = sum
	phaseStart = markPhase(&ph.BWTNS, phaseStart)

	if opts.PackedBWT {
		idx.packed = newPackedBWT(idx.bwt, workers)
	}
	phaseStart = markPhase(&ph.PackNS, phaseStart)

	// Rankall checkpoints: the paper's flat layout, or the hierarchical
	// two-level directory.
	if opts.TwoLevelOcc {
		if err := validateGeometry(); err != nil {
			return nil, err
		}
		idx.occ2 = buildTwoLevel(idx.bwt, workers)
	} else {
		idx.occ = buildFlatOcc(idx.bwt, opts.OccRate, workers)
	}
	phaseStart = markPhase(&ph.OccNS, phaseStart)

	// SA samples for Locate: mark rows whose SA value is a multiple of
	// SARate (plus position n so every LF walk terminates).
	idx.saMarked, idx.saSamples = buildSASamples(sa, n, opts.SARate, workers)
	markPhase(&ph.PackNS, phaseStart)
	if idx.packed != nil {
		idx.bwt = nil // the packed layout is authoritative
	}
	if opts.Phases != nil {
		opts.Phases.SANS += ph.SANS
		opts.Phases.BWTNS += ph.BWTNS
		opts.Phases.OccNS += ph.OccNS
		opts.Phases.PackNS += ph.PackNS
	}
	return idx, nil
}

// markPhase accumulates the time elapsed since start into field and
// returns the next phase's start. Timing is always collected — a
// handful of time.Now calls against a millisecond-scale build — and
// copied out only when the caller asked for the breakdown.
func markPhase(field *int64, start time.Time) time.Time {
	now := time.Now()
	*field += now.Sub(start).Nanoseconds()
	return now
}

// deriveOccShift caches log2(OccRate) so the rank hot paths can replace
// the checkpoint division — by a rate known only at runtime, which the
// compiler cannot strength-reduce — with a shift. Called from Build and
// the deserializer (anywhere opts is assigned).
func (idx *Index) deriveOccShift() {
	rate := idx.opts.OccRate
	if rate > 0 && rate&(rate-1) == 0 {
		idx.occShift = int32(bits.TrailingZeros32(uint32(rate)))
	} else {
		idx.occShift = -1
	}
}

// bwtAt reads L[i] regardless of the storage layout.
func (idx *Index) bwtAt(i int32) byte {
	if idx.rel != nil {
		return idx.relBWTAt(i)
	}
	if idx.packed != nil {
		return idx.packed.get(i)
	}
	return idx.bwt[i]
}

// N returns the length of the indexed text (excluding the sentinel).
func (idx *Index) N() int { return idx.n }

// Options returns the build options.
func (idx *Index) Options() Options { return idx.opts }

// Full returns the interval of all rows (the paper's virtual root
// ⟨-, [1, n+1]⟩).
func (idx *Index) Full() Interval { return Interval{0, int32(idx.n) + 1} }

// occAt returns the number of occurrences of base rank x (1..4) in
// bwt[0:p].
func (idx *Index) occAt(x byte, p int32) int32 {
	if idx.rel != nil {
		return idx.relOccAt(x, p)
	}
	var cnt, from int32
	if idx.occ2 != nil {
		cnt, from = idx.occ2.base(x, p)
	} else {
		var chk int32
		if s := idx.occShift; s >= 0 {
			chk = p >> s
			from = chk << s
		} else {
			chk = p / int32(idx.opts.OccRate)
			from = chk * int32(idx.opts.OccRate)
		}
		cnt = idx.occ[chk*alphabet.Bases+int32(x-1)]
	}
	if idx.packed != nil {
		return cnt + idx.packed.count(x, from, p)
	}
	// Ranging over the subslice hoists the bounds checks out of the
	// scan, which runs up to OccRate-1 iterations on every rank query.
	for _, ch := range idx.bwt[from:p] {
		if ch == x {
			cnt++
		}
	}
	return cnt
}

// Step performs one backward-search step: given the interval of rows whose
// suffixes start with some string w, it returns the interval of rows whose
// suffixes start with x·w. It is the paper's search(x, L⟨...⟩) in absolute
// interval form. An empty result means x·w does not occur.
func (idx *Index) Step(x byte, iv Interval) Interval {
	lo := idx.c[x] + idx.occAt(x, iv.Lo)
	hi := idx.c[x] + idx.occAt(x, iv.Hi)
	return Interval{lo, hi}
}

// StepAll performs the backward-search step for all four bases at once,
// filling out[0..3] for ranks A..T. It shares the two checkpoint lookups,
// which is what makes the S-tree expansion loop ("for each y within L⟨v⟩",
// Algorithm A line 16) cheap.
func (idx *Index) StepAll(iv Interval, out *[alphabet.Bases]Interval) {
	var lo, hi [alphabet.Bases]int32
	idx.occAll(iv.Lo, &lo)
	idx.occAll(iv.Hi, &hi)
	for x := 0; x < alphabet.Bases; x++ {
		c := idx.c[x+1]
		out[x] = Interval{c + lo[x], c + hi[x]}
	}
}

// StepSingleton is the backward-search step specialized for single-row
// intervals: a one-row interval has exactly one non-empty continuation,
// the character L[lo], read directly from the BWT. It returns that
// character and the child interval; ok is false when the row's
// continuation is the sentinel (the text start was reached).
func (idx *Index) StepSingleton(iv Interval) (x byte, child Interval, ok bool) {
	x = idx.bwtAt(iv.Lo)
	if x == alphabet.Sentinel {
		return 0, Interval{}, false
	}
	lo := idx.c[x] + idx.occAt(x, iv.Lo)
	return x, Interval{lo, lo + 1}, true
}

// occAll fills cnt with occurrences of each base in bwt[0:p].
func (idx *Index) occAll(p int32, cnt *[alphabet.Bases]int32) {
	if idx.rel != nil {
		idx.relOccAll(p, cnt)
		return
	}
	var from int32
	if idx.occ2 != nil {
		from = idx.occ2.baseAll(p, cnt)
	} else {
		var chk int32
		if s := idx.occShift; s >= 0 {
			chk = p >> s
			from = chk << s
		} else {
			chk = p / int32(idx.opts.OccRate)
			from = chk * int32(idx.opts.OccRate)
		}
		// Four explicit loads: a 16-byte copy() here compiles to a
		// memmove call, which profiles at ~10% of the whole search.
		row := idx.occ[chk*alphabet.Bases : chk*alphabet.Bases+alphabet.Bases]
		cnt[0], cnt[1], cnt[2], cnt[3] = row[0], row[1], row[2], row[3]
	}
	if idx.packed != nil {
		idx.packed.countAll(from, p, cnt)
		return
	}
	for _, ch := range idx.bwt[from:p] {
		if ch != alphabet.Sentinel {
			cnt[ch-1]++
		}
	}
}

// Search runs a full backward search for the rank-encoded pattern (matching
// it exactly) and returns the interval of rows prefixed by it. The pattern
// is processed from its last character to its first, per §III-A.
func (idx *Index) Search(pattern []byte) Interval {
	iv := idx.Full()
	for i := len(pattern) - 1; i >= 0 && !iv.Empty(); i-- {
		iv = idx.Step(pattern[i], iv)
	}
	return iv
}

// SearchReversed is Search for reverse(p): it consumes p left to right.
// On an index over a reversed text, the library's orientation, the
// resulting rows are the occurrences of p in the forward text.
func (idx *Index) SearchReversed(p []byte) Interval {
	iv := idx.Full()
	for i := 0; i < len(p) && !iv.Empty(); i++ {
		iv = idx.Step(p[i], iv)
	}
	return iv
}

// Count returns the number of exact occurrences of pattern.
func (idx *Index) Count(pattern []byte) int { return idx.Search(pattern).Len() }

// MatchLen extends the empty match by the characters of p in order (one
// idx.Step per character) and returns how many of them match before the
// interval empties — the length of the longest prefix of p that occurs
// in the text — plus the number of rank steps consumed (equal to what
// the equivalent Step loop would report). It is the φ-bound /
// matching-statistics primitive and the hottest loop of the pruned
// searches, so the flat byte occ layout gets a fused implementation:
// the interval stays in registers across iterations, the first step
// from Full is answered from the C array alone (occ of a full prefix
// is a bucket width), and one-row intervals are resolved by a direct
// BWT comparison, which turns the common "unique substring, next
// character mismatches" exit into a single byte load. Other rank
// backends (two-level, packed) use the generic loop.
func (idx *Index) MatchLen(p []byte) (matched, steps int) {
	if len(p) == 0 {
		return 0, 0
	}
	if idx.rel != nil || idx.occ2 != nil || idx.packed != nil || idx.occShift < 0 {
		iv := idx.Full()
		for q := 0; q < len(p); q++ {
			iv = idx.Step(p[q], iv)
			steps++
			if iv.Empty() {
				return q, steps
			}
		}
		return len(p), steps
	}
	shift := idx.occShift
	bwt, occ := idx.bwt, idx.occ
	x := p[0]
	lo, hi := idx.c[x], idx.c[x+1]
	steps++
	if lo >= hi {
		return 0, steps
	}
	for q := 1; q < len(p); q++ {
		x = p[q]
		steps++
		if hi == lo+1 {
			if bwt[lo] != x {
				return q, steps
			}
			chk := lo >> shift
			cnt := occ[chk*alphabet.Bases+int32(x-1)]
			for _, ch := range bwt[chk<<shift : lo] {
				if ch == x {
					cnt++
				}
			}
			lo = idx.c[x] + cnt
			hi = lo + 1
			continue
		}
		xi := int32(x - 1)
		chk := lo >> shift
		cl := occ[chk*alphabet.Bases+xi]
		for _, ch := range bwt[chk<<shift : lo] {
			if ch == x {
				cl++
			}
		}
		chk = hi >> shift
		chi := occ[chk*alphabet.Bases+xi]
		for _, ch := range bwt[chk<<shift : hi] {
			if ch == x {
				chi++
			}
		}
		lo, hi = idx.c[x]+cl, idx.c[x]+chi
		if lo >= hi {
			return q, steps
		}
	}
	return len(p), steps
}

// lfStep is the LF-mapping: the row of the suffix obtained by prepending
// bwt[row] to the suffix of row.
func (idx *Index) lfStep(row int32) int32 {
	x := idx.bwtAt(row)
	if x == alphabet.Sentinel {
		return 0
	}
	return idx.c[x] + idx.occAt(x, row)
}

// Locate resolves every row of iv to a text position (the start of the
// suffix in the indexed text), using the sampled suffix array: walk LF
// until a marked row is hit. Results are appended to dst.
func (idx *Index) Locate(iv Interval, dst []int32) []int32 {
	return idx.LocateTraced(iv, dst, nil)
}

// LocateTraced is Locate with telemetry: when tr is non-nil it emits one
// EvLocate event per call carrying the number of rows resolved and the
// total LF-mapping steps walked to reach sampled rows (the suffix-array
// sampling cost the SARate option trades space against).
func (idx *Index) LocateTraced(iv Interval, dst []int32, tr obs.Tracer) []int32 {
	var lf int64
	for row := iv.Lo; row < iv.Hi; row++ {
		r, steps := row, int32(0)
		for !idx.saMarked.Get(int(r)) {
			r = idx.lfStep(r)
			steps++
		}
		lf += int64(steps)
		dst = append(dst, idx.saSamples[idx.saMarked.Rank1(int(r))]+steps)
	}
	if tr != nil {
		tr.Emit(obs.EvLocate,
			obs.Arg{Key: "rows", Val: int64(iv.Len())},
			obs.Arg{Key: "lf_steps", Val: lf})
	}
	return dst
}

// BWT returns the BWT array (rank-encoded, including the sentinel). For
// the packed layout a fresh copy is materialized; otherwise the caller
// must not modify the returned slice.
func (idx *Index) BWT() []byte {
	if idx.rel != nil {
		return idx.relBWT()
	}
	if idx.packed == nil {
		return idx.bwt
	}
	out := make([]byte, idx.n+1)
	for i := range out {
		out[i] = idx.packed.get(int32(i))
	}
	return out
}

// SizeBytes estimates the index payload: the BWT (3 bits/char in the
// paper's accounting for the byte layout, the true 2-bit payload for the
// packed layout) plus occ checkpoints plus SA samples.
func (idx *Index) SizeBytes() int {
	if idx.rel != nil {
		// Tenant-resident bytes only: the delta plus the tenant's own
		// Locate samples. The shared base is accounted once, elsewhere.
		return idx.rel.SizeBytes() + len(idx.saSamples)*4 + idx.saMarked.Len()/8
	}
	bwtBytes := (idx.n+1)*3/8 + 1
	if idx.packed != nil {
		bwtBytes = idx.packed.sizeBytes()
	}
	occBytes := len(idx.occ) * 4
	if idx.occ2 != nil {
		occBytes = idx.occ2.sizeBytes()
	}
	return bwtBytes + occBytes + len(idx.saSamples)*4 + idx.saMarked.Len()/8
}
