// Package seedext implements index-based seed-and-extend k-mismatch
// matching: the pigeonhole filter of the Amir baseline, but with the
// exact seed occurrences found on the BWT index instead of by scanning
// the target (the design of production read aligners, and the natural
// "future work" composition of the paper's two ingredients — its index
// and its filter baseline).
//
// The pattern is split into k+1 disjoint blocks; any occurrence with at
// most k mismatches contains at least one block exactly, so the exact
// occurrences of the blocks (one backward search each, O(m) total rank
// work) propose candidate alignments, which are verified by bounded
// mismatch counting. Per query the work is O(m + occ(blocks) + |cand|·k)
// — independent of n, unlike the scanning filter.
package seedext

import (
	"errors"

	"bwtmatch/internal/amir"
	"bwtmatch/internal/fmindex"
)

// Match and Stats share the Amir filter's shapes; Stats.Seeds counts
// located seed occurrences.
type (
	Match = amir.Match
	Stats = amir.Stats
)

// Matcher answers k-mismatch queries using an FM-index built over the
// REVERSED target (the same orientation internal/core uses, so one index
// serves both algorithms).
type Matcher struct {
	idx  *fmindex.Index
	text []byte // forward target, rank-encoded
}

// ErrPattern reports an unusable pattern.
var ErrPattern = errors.New("seedext: invalid pattern")

// New wraps an index over reverse(text) together with the forward text.
func New(idx *fmindex.Index, text []byte) *Matcher {
	return &Matcher{idx: idx, text: text}
}

// Find returns all k-mismatch occurrences of pattern, sorted by position.
func (s *Matcher) Find(pattern []byte, k int) ([]Match, Stats, error) {
	var st Stats
	m, n := len(pattern), len(s.text)
	if m == 0 || k < 0 {
		return nil, st, ErrPattern
	}
	if m > n {
		return nil, st, nil
	}
	if k >= m {
		out := amir.All(s.text, pattern)
		st.Matches = len(out)
		return out, st, nil
	}

	offsets := amir.Breaks(pattern, k)
	st.Blocks = len(offsets)
	candidates := make(map[int32]struct{})
	var buf []int32
	for i, off := range offsets {
		end := m
		if i+1 < len(offsets) {
			end = offsets[i+1]
		}
		iv := s.idx.SearchReversed(pattern[off:end])
		if iv.Empty() {
			continue
		}
		buf = s.idx.Locate(iv, buf[:0])
		blockLen := end - off
		for _, p := range buf {
			st.Seeds++
			// p is the block's start in the reversed text; convert to the
			// forward start, then to the alignment start.
			fwd := int32(n) - p - int32(blockLen)
			start := fwd - int32(off)
			if start >= 0 && int(start)+m <= n {
				candidates[start] = struct{}{}
			}
		}
	}

	out := amir.Verify(s.text, pattern, k, candidates)
	st.Candidates, st.Matches = len(candidates), len(out)
	return out, st, nil
}
