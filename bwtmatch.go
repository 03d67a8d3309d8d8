package bwtmatch

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/amir"
	"bwtmatch/internal/core"
	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/kerrors"
	"bwtmatch/internal/obs"
	"bwtmatch/internal/seedext"
	"bwtmatch/internal/suffixtree"
	"bwtmatch/internal/wildcard"
)

// Method selects the matching algorithm of a search. The zero value is
// the paper's Algorithm A.
type Method int

const (
	// AlgorithmA is the paper's contribution: BWT search with mismatching
	// trees (default).
	AlgorithmA Method = iota
	// BWTBaseline is the φ-pruned brute-force BWT search of the paper's
	// reference [34].
	BWTBaseline
	// STree is the unpruned brute-force S-tree search (ablation of the φ
	// heuristic).
	STree
	// AlgorithmANoPhi is Algorithm A without the φ(i) bound, exactly as
	// the paper states it (ablation; see DESIGN.md §3.5).
	AlgorithmANoPhi
	// Amir is the filtering baseline: exact break occurrences, candidate
	// marking, verification.
	Amir
	// Cole is the suffix-tree brute-force baseline.
	Cole
	// Online is the index-free Landau–Vishkin style kangaroo matcher.
	Online
	// Seed is index-based seed-and-extend (extension, DESIGN.md): the
	// pigeonhole filter of Amir with seed occurrences found on the BWT
	// index instead of by scanning — per-query work independent of the
	// target length.
	Seed
)

// String returns the method name used in EXPERIMENTS.md tables.
func (m Method) String() string {
	switch m {
	case AlgorithmA:
		return "A()"
	case BWTBaseline:
		return "BWT"
	case STree:
		return "S-tree"
	case AlgorithmANoPhi:
		return "A()-nophi"
	case Amir:
		return "Amir"
	case Cole:
		return "Cole"
	case Online:
		return "Online"
	case Seed:
		return "Seed"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Match is one occurrence of the pattern in the target.
type Match struct {
	// Pos is the 0-based start position in the target.
	Pos int
	// Mismatches is the Hamming distance between the pattern and the
	// target window at Pos.
	Mismatches int
}

// Stats aggregates per-query work counters; fields are zero for methods
// they do not apply to.
type Stats struct {
	// MTreeLeaves is the paper's n′ (Table 2) for AlgorithmA/BWTBaseline.
	MTreeLeaves int
	// StepCalls counts the BWT rank operations of the traversal: one per
	// expanded S-tree node, whether it stepped all four characters or,
	// with no mismatch left, only the pattern's own. A one-row node that
	// read a mismatching character with no mismatch left skips its rank
	// query and still counts one. It excludes the φ bound's occurrence
	// tests, which PhiSteps counts.
	StepCalls int
	// PhiSteps counts the BWT rank operations spent computing the φ(i)
	// bound (AlgorithmA and BWTBaseline; zero for the other methods).
	PhiSteps int
	// MemoHits counts repeated-interval derivations (AlgorithmA).
	MemoHits int
	// Candidates counts verified alignments (Amir).
	Candidates int
	// Visited counts suffix tree nodes touched (Cole).
	Visited int
	// LocateNS is the wall time (nanoseconds) spent resolving surviving
	// BWT intervals to text positions, for the BWT-path methods. It lets
	// benchmarks separate traversal cost from SA-sample walk cost.
	LocateNS int64
}

// Index is an immutable k-mismatch search index over one target sequence.
// It is safe for concurrent use once built.
type Index struct {
	text     []byte // rank-encoded target; nil until first use when textFn is set
	textOnce sync.Once
	textFn   func() []byte // lazy target reconstruction (relative layout)
	searcher *core.Searcher
	refs     []Ref // reference table for NewRefs indexes; nil otherwise

	amirOnce sync.Once
	amirM    *amir.Matcher

	coleOnce sync.Once
	coleTree *suffixtree.Tree
	coleErr  error

	seedOnce sync.Once
	seedM    *seedext.Matcher

	wildOnce sync.Once
	wildM    *wildcard.Matcher

	biOnce sync.Once
	bi     *fmindex.BiIndex
	biErr  error
}

// ErrInput reports unusable target or pattern data.
var ErrInput = errors.New("bwtmatch: invalid input")

// New builds an index over a DNA target (bytes over acgtACGT; see
// Sanitize for dirty inputs). Options configure space/time trade-offs.
func New(target []byte, opts ...Option) (*Index, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if len(target) == 0 {
		return nil, fmt.Errorf("%w: empty target", ErrInput)
	}
	ranks, err := alphabet.Encode(target)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}
	searcher, err := core.NewSearcher(ranks, cfg.fm)
	if err != nil {
		return nil, err
	}
	return &Index{text: ranks, searcher: searcher}, nil
}

// Sanitize replaces characters outside the DNA alphabet (e.g. 'N') with
// 'a' and lower-cases the rest, returning the cleaned copy and how many
// bytes were replaced.
func Sanitize(seq []byte) ([]byte, int) { return alphabet.Sanitize(seq) }

// Len returns the target length.
func (x *Index) Len() int { return x.searcher.N() }

// targetText returns the rank-encoded target, reconstructing it on
// first use for layouts that do not keep the text resident (the
// relative layout rebuilds it from the BWT via one LF walk). The BWT
// search paths never call this — only the text-scanning baselines and
// reference decoding do.
func (x *Index) targetText() []byte {
	if x.textFn != nil {
		x.textOnce.Do(func() { x.text = x.textFn() })
	}
	return x.text
}

// SizeBytes estimates the resident size of the BWT index structures.
func (x *Index) SizeBytes() int { return x.searcher.Index().SizeBytes() }

// Tracer receives per-query telemetry from the search primitive: phase
// spans (phi, traverse, locate) plus one event per unit of the paper's
// work measures (M-tree leaves, merges, fallbacks). internal/obs.Recorder
// is the in-repo implementation; a nil Tracer costs nothing.
type Tracer = obs.Tracer

// SearchMethodTraced runs the search primitive with a pooled Scratch and
// returns the matches in a fresh slice; tr may be nil. See
// SearchMethodScratch for the telemetry contract.
func (x *Index) SearchMethodTraced(pattern []byte, k int, method Method, tr Tracer) ([]Match, Stats, error) {
	return searchPooled(x, pattern, k, method, tr)
}

// MEM is one maximal exact match of a pattern: pattern[Start:Start+Len)
// occurs in the target at every position of Positions and can be extended
// in neither direction.
type MEM struct {
	Start, Len int
	Positions  []int
}

// MEMs returns the maximal exact matches of the pattern with length at
// least minLen — the seeding primitive of modern aligners, computed on a
// bidirectional FM-index built lazily on first use (it adds a second,
// forward index over the target).
func (x *Index) MEMs(pattern []byte, minLen int) ([]MEM, error) {
	p, err := alphabet.Encode(pattern)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("%w: empty pattern", ErrInput)
	}
	x.biOnce.Do(func() {
		x.bi, x.biErr = fmindex.BuildBi(x.targetText(), fmindex.DefaultOptions())
	})
	if x.biErr != nil {
		return nil, x.biErr
	}
	raw := x.bi.MEMs(p, minLen)
	out := make([]MEM, len(raw))
	var buf []int32
	for i, m := range raw {
		buf = x.bi.Fwd().Locate(m.Iv.Fwd, buf[:0])
		positions := make([]int, len(buf))
		for j, q := range buf {
			positions[j] = int(q)
		}
		sort.Ints(positions)
		out[i] = MEM{Start: m.Start, Len: m.Len, Positions: positions}
	}
	return out, nil
}

// wildcardRank is the internal marker for don't-care positions; it lies
// outside the alphabet's rank range.
const wildcardRank = byte(0x7F)

// SearchWildcard finds all exact occurrences of a pattern containing
// don't-care symbols ('n' or 'N'), each matching any single base — the
// paper's §II "string matching with don't-cares", provided as an
// extension. Positions are sorted.
func (x *Index) SearchWildcard(pattern []byte) ([]int, error) {
	p := make([]byte, len(pattern))
	for i, b := range pattern {
		if b == 'n' || b == 'N' {
			p[i] = wildcardRank
			continue
		}
		r, err := alphabet.Rank(b)
		if err != nil || r == alphabet.Sentinel {
			return nil, fmt.Errorf("%w: %q at position %d", ErrInput, b, i)
		}
		p[i] = r
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("%w: empty pattern", ErrInput)
	}
	x.wildOnce.Do(func() { x.wildM = wildcard.New(x.searcher.Index(), x.targetText()) })
	pos, err := x.wildM.Find(p, wildcardRank)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}
	out := make([]int, len(pos))
	for i, q := range pos {
		out[i] = int(q)
	}
	return out, nil
}

// EditMatch is one k-errors (Levenshtein) occurrence: some substring of
// the target ending at End (exclusive) is within Distance edits of the
// pattern.
type EditMatch struct {
	End      int
	Distance int
}

// SearchEdits finds all positions where the pattern occurs with at most k
// edit operations (substitutions, insertions, deletions) — the
// Levenshtein-distance sibling of Search, provided as an extension (the
// paper's §II "string matching with k errors"). It runs the O(kn) banded
// online matcher over the target.
func (x *Index) SearchEdits(pattern []byte, k int) ([]EditMatch, error) {
	p, err := alphabet.Encode(pattern)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}
	ms, err := kerrors.FindBanded(x.targetText(), p, k)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}
	out := make([]EditMatch, len(ms))
	for i, m := range ms {
		out[i] = EditMatch{End: int(m.End), Distance: m.Distance}
	}
	return out, nil
}

// MTreeLeaves runs Algorithm A and returns the paper's n′ statistic
// without locating occurrences (used by the Table 2 reproduction).
// It validates the query as Search does.
func (x *Index) MTreeLeaves(pattern []byte, k int) (int, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	p, err := sc.encode(pattern, k)
	if err != nil {
		return 0, err
	}
	cs, err := x.searcher.CountLeaves(sc.core, p, k)
	if err != nil {
		return 0, err
	}
	return cs.MTreeLeaves, nil
}

// coreMethods maps the public BWT-path methods onto core's selectors.
var coreMethods = map[Method]core.Method{
	AlgorithmA:      core.MethodMTree,
	BWTBaseline:     core.MethodSTreePhi,
	STree:           core.MethodSTree,
	AlgorithmANoPhi: core.MethodMTreeNoPhi,
}
