// Package core implements the paper's search algorithms over a BWT-array
// index: the brute-force search-tree traversal of [34] with the φ(i)
// pruning heuristic (the paper's "BWT" baseline, §IV-A) and the paper's
// contribution, Algorithm A, which builds a mismatching tree (M-tree) and
// derives repeated subtrees from precomputed pattern mismatch information
// instead of re-searching the BWT (§IV-C/D). All four methods run one
// traversal, Algorithm A's, with the φ bound and the M-tree memo as
// switches.
//
// The index is built over the REVERSE of the target, so the pattern is
// consumed left-to-right (each consumed character is one backward-search
// step), exactly as in the paper's S-tree definition ("the search of r
// against BWT(s̄)", Definition 1).
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/obs"
)

// Method selects the search strategy.
type Method int

const (
	// MethodSTree is the brute-force S-tree traversal without pruning:
	// Algorithm A's walk with the φ bound and the memo off.
	MethodSTree Method = iota
	// MethodSTreePhi is the S-tree traversal with the φ(i) heuristic of
	// [34]: prune when mismatches-used + φ(next position) exceeds k.
	// It is Algorithm A's walk with the memo off.
	MethodSTreePhi
	// MethodMTree is the paper's Algorithm A: S-tree traversal with a hash
	// table of BWT intervals and M-tree subtree derivation via pattern
	// mismatch information, composed with the φ(i) bound.
	MethodMTree
	// MethodMTreeNoPhi is Algorithm A exactly as the paper states it,
	// without the φ(i) bound (ablation).
	MethodMTreeNoPhi
)

// switches holds each method's two traversal switches: the φ(i) bound
// and Algorithm A's M-tree memo.
var switches = [...]struct{ phi, memo bool }{
	MethodSTree:      {false, false},
	MethodSTreePhi:   {true, false},
	MethodMTree:      {true, true},
	MethodMTreeNoPhi: {false, true},
}

// String names the method as in the paper's experiment section.
func (m Method) String() string {
	switch m {
	case MethodSTree:
		return "stree"
	case MethodSTreePhi:
		return "bwt" // the paper's "BWT" baseline
	case MethodMTree:
		return "a" // the paper's "A()" plus the φ bound
	case MethodMTreeNoPhi:
		return "a-nophi"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Match is one k-mismatch occurrence of the pattern in the target.
type Match struct {
	Pos        int32 // 0-based start position in the target
	Mismatches int   // Hamming distance of this occurrence
}

// Stats reports work counters of one search; the paper's Table 2 reports
// MTreeLeaves (n′).
type Stats struct {
	// Nodes is the number of S-tree nodes expanded by live search.
	Nodes int
	// StepCalls is the number of BWT rank steps the traversal spent: a
	// StepAll, a Step (a node with no mismatch left steps only the
	// pattern's character) or a one-row step each, plus the re-steps of
	// runIvAt. A one-row step at zero budget whose row holds another
	// character skips its rank query and still counts one. It excludes
	// φ's occurrence tests, which PhiSteps counts.
	StepCalls int
	// PhiSteps is the number of rank steps spent computing the φ bound
	// (the MatchLen probes of computePhi); zero when φ is off.
	PhiSteps int
	// MTreeLeaves is n′: the number of maximal root-to-leaf paths of the
	// (conceptual) M-tree, counting both live-explored and derived paths.
	MTreeLeaves int
	// Occurrences is the number of matches found (before locating).
	Occurrences int
	// MemoHits counts repeated-interval events resolved by derivation.
	MemoHits int
	// DerivedLeaves counts leaves obtained by derivation rather than by
	// BWT search.
	DerivedLeaves int
	// LiveFallbacks counts derivations that had to resume live search
	// because the cached subtree was explored with a smaller budget or to
	// a smaller depth (see DESIGN.md §3.4).
	LiveFallbacks int
	// LocateNS is the wall time spent resolving surviving leaves to text
	// positions (the SA-sample LF walks), separated from the traversal so
	// occ-path improvements are not masked by locate cost in benchmarks.
	LocateNS int64
}

// Searcher answers k-mismatch queries against one target text.
type Searcher struct {
	idx *fmindex.Index // FM-index of reverse(target)
	n   int            // target length
}

// ErrPattern reports an unusable pattern.
var ErrPattern = errors.New("core: invalid pattern")

// NewSearcher builds a Searcher for a rank-encoded target text (values
// 1..4). The index is constructed over the reversed text per §IV.
func NewSearcher(text []byte, opts fmindex.Options) (*Searcher, error) {
	idx, err := fmindex.Build(alphabet.Reverse(slices.Clone(text)), opts)
	if err != nil {
		return nil, err
	}
	return &Searcher{idx: idx, n: len(text)}, nil
}

// NewSearcherFromIndex wraps an existing index that was already built over
// the reversed target of length n.
func NewSearcherFromIndex(idx *fmindex.Index, n int) *Searcher {
	return &Searcher{idx: idx, n: n}
}

// N returns the target length.
func (s *Searcher) N() int { return s.n }

// Index exposes the underlying FM-index (over the reversed target).
func (s *Searcher) Index() *fmindex.Index { return s.idx }

// FindScratch returns all k-mismatch occurrences of the rank-encoded
// pattern, sorted by position, along with search statistics. All
// working memory comes from sc and matches are appended to dst (which
// may be nil).
// With a warm Scratch and a dst of sufficient capacity a call performs
// no heap allocation. sc must not be shared between concurrent calls.
//
// When tr is non-nil the search is wrapped in phase spans (phi,
// traverse, locate) and the traversal emits one EvLeaf per maximal
// M-tree path — so the EvLeaf count equals Stats.MTreeLeaves (the
// paper's n′) — one EvMerge per memoized derivation (equals
// Stats.MemoHits), one EvFallback per live fallback, and EvExpand for
// every fresh multi-row expansion. A nil tr runs the same code and
// skips every emit.
func (s *Searcher) FindScratch(sc *Scratch, dst []Match, pattern []byte, k int, method Method, tr obs.Tracer) ([]Match, Stats, error) {
	// The counters live in sc so that taking their address (the
	// traversal stores it in the heap-resident asearch) does not force a
	// heap allocation of a stack-local Stats on every call.
	sc.stats = Stats{}
	stats := &sc.stats
	if len(pattern) == 0 {
		return dst, *stats, fmt.Errorf("%w: empty", ErrPattern)
	}
	for i, r := range pattern {
		if r < alphabet.A || r > alphabet.T {
			return dst, *stats, fmt.Errorf("%w: rank %d at position %d", ErrPattern, r, i)
		}
	}
	if k < 0 {
		return dst, *stats, fmt.Errorf("%w: negative k", ErrPattern)
	}
	if method < 0 || int(method) >= len(switches) {
		return dst, *stats, fmt.Errorf("core: unknown method %d", method)
	}
	if len(pattern) > s.n {
		return dst, *stats, nil
	}

	if tr != nil {
		tr.Begin("traverse")
	}
	sw := switches[method]
	leaves := s.traverse(sc, pattern, k, sw.phi, sw.memo, stats, tr)
	if tr != nil {
		tr.End(
			obs.Arg{Key: "step_calls", Val: int64(stats.StepCalls)},
			obs.Arg{Key: "nodes", Val: int64(stats.Nodes)},
			obs.Arg{Key: "leaves", Val: int64(stats.MTreeLeaves)},
			obs.Arg{Key: "memo_hits", Val: int64(stats.MemoHits)},
			obs.Arg{Key: "fallbacks", Val: int64(stats.LiveFallbacks)})
		tr.Begin("locate")
	}
	stats.Occurrences = 0
	locateStart := time.Now()
	out := dst
	buf := sc.locBuf
	m := len(pattern)
	for _, lf := range leaves {
		buf = s.idx.LocateTraced(lf.iv, buf[:0], tr)
		for _, p := range buf {
			out = append(out, Match{Pos: int32(s.n) - p - int32(m), Mismatches: lf.mism})
		}
	}
	sc.locBuf = buf
	stats.Occurrences = len(out) - len(dst)
	slices.SortFunc(out[len(dst):], func(a, b Match) int { return int(a.Pos) - int(b.Pos) })
	stats.LocateNS = time.Since(locateStart).Nanoseconds()
	if tr != nil {
		tr.End(obs.Arg{Key: "occurrences", Val: int64(stats.Occurrences)})
	}
	return out, *stats, nil
}

// leaf is a surviving S-tree leaf: an interval of rows whose length-m
// context matches the pattern with mism mismatches.
type leaf struct {
	iv   fmindex.Interval
	mism int
}

// CountLeaves runs Algorithm A with working memory from sc and returns
// only n′ (Table 2) and stats, without locating occurrences.
func (s *Searcher) CountLeaves(sc *Scratch, pattern []byte, k int) (Stats, error) {
	var stats Stats
	if len(pattern) == 0 || len(pattern) > s.n {
		return stats, nil
	}
	s.traverse(sc, pattern, k, true, true, &stats, nil)
	return stats, nil
}
