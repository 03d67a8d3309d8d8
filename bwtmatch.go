package bwtmatch

import (
	"errors"
	"fmt"
	"sync"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/core"
	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/obs"
	"bwtmatch/internal/seedext"
)

// Method selects the matching algorithm of a search, each over the
// index. The zero value is the paper's Algorithm A.
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
	// Candidates counts verified alignments (Seed).
	Candidates int
	// LocateNS is the wall time (nanoseconds) spent resolving surviving
	// BWT intervals to text positions, for the BWT-path methods. It lets
	// benchmarks separate traversal cost from SA-sample walk cost.
	LocateNS int64
}

// Index is an immutable k-mismatch search index over one target sequence.
// It is safe for concurrent use once built.
type Index struct {
	text     *alphabet.Packed // 2-bit target; nil until first use when textFn is set
	textOnce sync.Once
	textFn   func() (*alphabet.Packed, error) // lazy target reconstruction (relative layout)
	textErr  error
	searcher *core.Searcher
	refs     []Ref // reference table for NewRefs indexes; nil otherwise

	seedOnce sync.Once
	seedM    *seedext.Matcher
}

// ErrInput reports unusable target or pattern data.
var ErrInput = errors.New("bwtmatch: invalid input")

// ErrBaseOnly reports a search, save or text read on a base-only index
// (BaseOnly), which keeps only what its relative tenants read.
var ErrBaseOnly = errors.New("bwtmatch: base-only index serves only as the base of relative tenants")

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
	return newIndex(ranks, cfg.fm)
}

// newIndex builds an index over rank-encoded text and keeps the text
// packed, 2 bits per base. It does not retain ranks.
func newIndex(ranks []byte, fm fmindex.Options) (*Index, error) {
	searcher, err := core.NewSearcher(ranks, fm)
	if err != nil {
		return nil, err
	}
	text, err := alphabet.Pack(ranks)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}
	return &Index{text: text, searcher: searcher}, nil
}

// Sanitize replaces characters outside the DNA alphabet (e.g. 'N') with
// 'a' and lower-cases the rest, returning the cleaned copy and how many
// bytes were replaced.
func Sanitize(seq []byte) ([]byte, int) { return alphabet.Sanitize(seq) }

// Len returns the target length.
func (x *Index) Len() int { return x.searcher.N() }

// BaseOnly returns a copy of x that keeps only what a relative tenant
// reads of its base: the 2-bit BWT, the occ checkpoints and the C
// array, shared with x. It holds no text, no Locate samples and no
// reference table, and it serves only as the base of relative tenants
// (NewRelative, LoadRelative): every search, Save and RefSeq returns
// ErrBaseOnly. LoadRelativeFile resolves a container's
// base path hint to one.
func (x *Index) BaseOnly() *Index {
	return &Index{searcher: core.NewSearcherFromIndex(x.searcher.Index().RankOnly(), x.Len())}
}

// baseOnly reports whether x is a BaseOnly copy.
func (x *Index) baseOnly() bool { return x.searcher.Index().IsRankOnly() }

// packedText returns the 2-bit target, reconstructing it on first use
// for layouts that do not keep the text resident (the relative layout
// rebuilds it from the BWT via one LF walk). The BWT search paths never
// call this; Seed, Save and RefSeq do.
func (x *Index) packedText() (*alphabet.Packed, error) {
	if x.baseOnly() {
		return nil, ErrBaseOnly
	}
	if x.textFn != nil {
		x.textOnce.Do(func() { x.text, x.textErr = x.textFn() })
	}
	return x.text, x.textErr
}

// SizeBytes estimates the resident size of the BWT index structures.
func (x *Index) SizeBytes() int { return x.searcher.Index().SizeBytes() }

// ResidentBytes is the resident cost of a standalone index: the BWT
// structures (SizeBytes) plus the packed target text, 0.25 B/base. A
// BaseOnly index holds no text and no Locate samples, so it costs its
// 2-bit BWT and occ checkpoints alone. A relative tenant rebuilds its
// text only when a text path needs it; its cost is DeltaBytes, and its
// base is counted once, by the holder.
func (x *Index) ResidentBytes() int {
	if x.baseOnly() {
		return x.SizeBytes()
	}
	return x.SizeBytes() + (x.Len()+alphabet.CodesPerWord-1)/alphabet.CodesPerWord*8
}

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

// coreMethods maps the public BWT-path methods onto core's selectors.
var coreMethods = map[Method]core.Method{
	AlgorithmA:      core.MethodMTree,
	BWTBaseline:     core.MethodSTreePhi,
	STree:           core.MethodSTree,
	AlgorithmANoPhi: core.MethodMTreeNoPhi,
}
