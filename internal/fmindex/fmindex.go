// Package fmindex implements the BWT-array index of the paper's §III: the
// Burrows–Wheeler transform of a (rank-encoded) text, the first-column C
// array, sampled "rankall" occurrence tables, the backward-search step
// search(x, L⟨...⟩), and occurrence locating via a sampled suffix array.
//
// The text handed to Build must already be rank-encoded over
// internal/alphabet ($=0 < a < c < g < t); Build appends the sentinel
// itself. Following the paper's storage scheme (§V), the BWT is stored
// at 2 bits per character with the sentinel's position held out of
// band, and one rankall value per character is checkpointed every
// OccRate elements of L (§III-A).
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
	// are completed by popcounts over the 2-bit BWT words. The paper
	// stores "4 rankall values for every 4 elements" in its experiments
	// (rate 4) and discusses sparser sampling as a space saving (§III-A).
	// The default, 32, is one 64-bit word of BWT per checkpoint row, so
	// a rank query reads one row and popcounts exactly one word.
	OccRate int
	// SARate is the suffix-array sampling rate used by Locate: every
	// SARate-th text position is kept. Smaller is faster, larger smaller.
	SARate int
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

// DefaultOccRate is the rankall checkpoint spacing when none is given.
const DefaultOccRate = 32

// DefaultOptions returns the default configuration: checkpoints every
// DefaultOccRate positions and a suffix-array sample every 16.
func DefaultOptions() Options { return Options{OccRate: DefaultOccRate, SARate: 16} }

func (o *Options) normalize() error {
	if o.OccRate == 0 {
		o.OccRate = DefaultOccRate
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

	bwt packedBWT // BWT of text+$ at 2 bits per character

	c [alphabet.Size + 1]int32 // c[x] = #chars with rank < x in text+$

	occ      []int32 // rankall checkpoints: occ[(p/OccRate)*Bases + (x-1)]
	occShift int32   // log2(OccRate) when it is a power of two, else -1
	sentPos  int32   // position of the sentinel within bwt

	saMarked  *bitvec.Rank // rows whose SA value is sampled
	saSamples []int32      // SA values of marked rows, in row order

	// Relative layout (relative.go): the BWT and occ queries are bridged
	// to relBase through rel instead of local bwt/occ payloads, which
	// are empty. SA samples and the C array stay tenant-local.
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

	// BWT: L[i] = text[sa[i]-1], or $ when sa[i] == 0 (paper eq. (3)),
	// extracted one byte per character and then packed.
	bwt := make([]byte, n+1)
	idx.sentPos = extractBWT(bwt, sa, text, workers)

	// C array over text+$.
	counts := countRanks(text, workers)
	var sum int32
	for x := 0; x < alphabet.Size; x++ {
		idx.c[x] = sum
		sum += counts[x]
	}
	idx.c[alphabet.Size] = sum
	phaseStart = markPhase(&ph.BWTNS, phaseStart)

	idx.bwt = newPackedBWT(bwt, workers)
	phaseStart = markPhase(&ph.PackNS, phaseStart)

	idx.occ = buildFlatOcc(bwt, opts.OccRate, workers)
	phaseStart = markPhase(&ph.OccNS, phaseStart)

	// SA samples for Locate: mark rows whose SA value is a multiple of
	// SARate (plus position n so every LF walk terminates).
	idx.saMarked, idx.saSamples = buildSASamples(sa, n, opts.SARate, workers)
	markPhase(&ph.PackNS, phaseStart)
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

// checkpoint returns the rankall row covering bwt[0:p] and the position
// that row counts up to; the rank of p is the row plus the occurrences
// in bwt[from:p].
func (idx *Index) checkpoint(p int32) (row, from int32) {
	if s := idx.occShift; s >= 0 {
		row = p >> s
		return row, row << s
	}
	row = p / int32(idx.opts.OccRate)
	return row, row * int32(idx.opts.OccRate)
}

// bwtAt reads L[i].
func (idx *Index) bwtAt(i int32) byte {
	if idx.rel != nil {
		return idx.relBWTAt(i)
	}
	return idx.bwt.get(i)
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
	// flatOccAt's body, repeated: a call here would add one to every
	// rank step of Step and MatchLen.
	row, from := idx.checkpoint(p)
	return idx.occ[row*alphabet.Bases+int32(x-1)] + idx.bwt.count(x, from, p)
}

// flatOccAt is occAt on a standalone index: one checkpoint row plus
// the popcount of the BWT words after it.
func (idx *Index) flatOccAt(x byte, p int32) int32 {
	row, from := idx.checkpoint(p)
	return idx.occ[row*alphabet.Bases+int32(x-1)] + idx.bwt.count(x, from, p)
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
	if idx.rel != nil {
		idx.relStepAll(iv, out)
		return
	}
	var lo, hi [alphabet.Bases]int32
	idx.flatOccAll(iv.Lo, &lo)
	idx.flatOccAll(iv.Hi, &hi)
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
	return idx.StepSingletonIf(iv, AnyBase)
}

// AnyBase, passed as StepSingletonIf's want, accepts whichever base the
// row holds. It is the sentinel's rank, which never continues a walk.
const AnyBase byte = alphabet.Sentinel

// StepSingletonIf is StepSingleton for a walk that can continue only
// with the base want (or with any base, for AnyBase): it reads the
// row's character x and answers the rank query for the child only when
// x is wanted, so a row that cannot continue costs one character read.
// ok is false at the sentinel row and when x is not wanted; x is the
// row's character either way (0 for the sentinel).
func (idx *Index) StepSingletonIf(iv Interval, want byte) (x byte, child Interval, ok bool) {
	if idx.rel != nil {
		return idx.relStepSingleton(iv.Lo, want)
	}
	x = idx.bwt.get(iv.Lo)
	if x == alphabet.Sentinel || want != AnyBase && x != want {
		return x, Interval{}, false
	}
	lo := idx.c[x] + idx.flatOccAt(x, iv.Lo)
	return x, Interval{lo, lo + 1}, true
}

// occAll fills cnt with occurrences of each base in bwt[0:p].
func (idx *Index) occAll(p int32, cnt *[alphabet.Bases]int32) {
	if idx.rel != nil {
		idx.relOccAll(p, cnt)
		return
	}
	idx.flatOccAll(p, cnt)
}

// flatOccAll is occAll on a standalone index.
func (idx *Index) flatOccAll(p int32, cnt *[alphabet.Bases]int32) {
	row, from := idx.checkpoint(p)
	// Four explicit loads: a 16-byte copy() here compiles to a
	// memmove call, which profiles at ~10% of the whole search.
	r := idx.occ[row*alphabet.Bases : row*alphabet.Bases+alphabet.Bases]
	cnt[0], cnt[1], cnt[2], cnt[3] = r[0], r[1], r[2], r[3]
	idx.bwt.countAll(from, p, cnt)
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
// matching-statistics primitive, so it takes two shortcuts the Step
// loop cannot: the first step from Full is answered from the C array
// alone (occ of a full prefix is a bucket width), and a one-row
// interval is resolved by comparing its BWT character, which turns the
// common "unique substring, next character mismatches" exit into a
// single character read.
func (idx *Index) MatchLen(p []byte) (matched, steps int) {
	if len(p) == 0 {
		return 0, 0
	}
	x := p[0]
	lo, hi := idx.c[x], idx.c[x+1]
	steps = 1
	if lo >= hi {
		return 0, steps
	}
	for q := 1; q < len(p); q++ {
		x = p[q]
		steps++
		if hi == lo+1 {
			if idx.bwtAt(lo) != x {
				return q, steps
			}
			lo = idx.c[x] + idx.occAt(x, lo)
			hi = lo + 1
			continue
		}
		lo, hi = idx.c[x]+idx.occAt(x, lo), idx.c[x]+idx.occAt(x, hi)
		if lo >= hi {
			return q, steps
		}
	}
	return len(p), steps
}

// lfStep is the LF-mapping: the row of the suffix obtained by prepending
// bwt[row] to the suffix of row.
func (idx *Index) lfStep(row int32) int32 {
	if idx.rel != nil {
		_, child, _ := idx.relStepSingleton(row, AnyBase) // the sentinel's child is row 0
		return child.Lo
	}
	x := idx.bwt.get(row)
	if x == alphabet.Sentinel {
		return 0
	}
	return idx.c[x] + idx.flatOccAt(x, row)
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

// BWT returns a fresh copy of the BWT array (rank-encoded, including
// the sentinel).
func (idx *Index) BWT() []byte {
	if idx.rel != nil {
		return idx.relBWT()
	}
	return idx.bwt.unpack()
}

// SizeBytes returns the index payload: the 2-bit BWT plus the occ
// checkpoints plus the SA samples and their row marks.
func (idx *Index) SizeBytes() int {
	if idx.rel != nil {
		// Tenant-resident bytes only: the delta plus the tenant's own
		// Locate samples. The shared base is accounted once, elsewhere.
		return idx.rel.SizeBytes() + len(idx.saSamples)*4 + idx.saMarked.Len()/8
	}
	return idx.bwt.sizeBytes() + len(idx.occ)*4 + len(idx.saSamples)*4 + idx.saMarked.Len()/8
}
