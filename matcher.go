package bwtmatch

import (
	"context"
	"fmt"
)

// Matcher is the search surface shared by the monolithic *Index, the
// partitioned *ShardedIndex and the delta-compressed *RelativeIndex:
// everything a caller needs to run k-mismatch queries, map results to
// reference coordinates and account for memory, without knowing how the
// target is laid out. kmsearch and the kmserved registry operate on
// Matcher, so a saved index file is interchangeable between the layouts
// (LoadAnyFile dispatches on the container magic).
//
// Each layout implements one search, SearchMethodScratch; the other two
// search methods and the free functions Search, SearchMethod and
// SearchBest are built on it. The sharded implementation adds one
// restriction: patterns longer than its build-time MaxPatternLen are
// rejected with ErrInput.
type Matcher interface {
	// Len returns the indexed target length in bases.
	Len() int
	// SizeBytes estimates the resident size of the index structures.
	SizeBytes() int
	// Refs returns the reference table; nil for single-sequence indexes.
	Refs() []Ref
	// Resolve maps a target window [pos, pos+length) to reference
	// coordinates; ok is false if it crosses a reference boundary.
	Resolve(pos, length int) (ref string, refPos int, ok bool)

	// SearchMethodScratch is the search primitive: any Method, working
	// memory from sc, matches appended to dst, optional telemetry.
	SearchMethodScratch(sc *Scratch, dst []Match, pattern []byte, k int, method Method, tr Tracer) ([]Match, Stats, error)
	// SearchMethodTraced is the primitive with a pooled Scratch.
	SearchMethodTraced(pattern []byte, k int, method Method, tr Tracer) ([]Match, Stats, error)
	// MapAllContext runs a query batch across workers goroutines.
	MapAllContext(ctx context.Context, queries []Query, method Method, workers int) []Result
}

// Compile-time checks that every index layout satisfies Matcher.
var (
	_ Matcher = (*Index)(nil)
	_ Matcher = (*ShardedIndex)(nil)
	_ Matcher = (*RelativeIndex)(nil)
)

// Search finds all occurrences of pattern in m with at most k
// mismatches using Algorithm A, sorted by position.
func Search(m Matcher, pattern []byte, k int) ([]Match, error) {
	ms, _, err := m.SearchMethodTraced(pattern, k, AlgorithmA, nil)
	return ms, err
}

// SearchMethod runs one of the implemented matchers against m and
// reports work statistics alongside the matches.
func SearchMethod(m Matcher, pattern []byte, k int, method Method) ([]Match, Stats, error) {
	return m.SearchMethodTraced(pattern, k, method, nil)
}

// SearchBest finds the occurrences with the smallest Hamming distance not
// exceeding maxK, by iterative deepening: k = 0, 1, … until something
// matches. This is the question a read aligner actually asks ("where does
// this read fit best?"), and deepening is cheap here because Algorithm
// A's φ bound prunes hopeless budgets almost immediately. It returns the
// distance found and the matches at exactly that distance, or (-1, nil)
// when nothing matches within maxK.
func SearchBest(m Matcher, pattern []byte, maxK int) (int, []Match, error) {
	if maxK < 0 {
		return -1, nil, fmt.Errorf("%w: negative maxK", ErrInput)
	}
	for k := 0; k <= maxK; k++ {
		matches, err := Search(m, pattern, k)
		if err != nil {
			return -1, nil, err
		}
		// Search(k) returns every occurrence within distance k, and the
		// round at k-1 found none, so all of these are at exactly k.
		if len(matches) > 0 {
			return k, matches, nil
		}
	}
	return -1, nil, nil
}
