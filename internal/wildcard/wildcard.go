// Package wildcard implements string matching with don't-care symbols,
// the third inexact-matching family the paper's §II surveys: wildcard
// positions in the pattern match any single character. As the paper
// notes, the match relation stops being transitive, so KMP/BM shift
// tables do not apply; the practical approach is segment filtering —
// the solid (wildcard-free) segments of the pattern must occur exactly
// at their offsets, so the rarest segment's occurrences (found on the
// BWT index) propose candidates, which are verified directly.
package wildcard

import (
	"errors"
	"sort"

	"bwtmatch/internal/fmindex"
)

// ErrPattern reports an unusable pattern.
var ErrPattern = errors.New("wildcard: invalid pattern")

// FindNaive is the O(nm) reference matcher: wildcard (in the pattern
// only) matches any text character.
func FindNaive(text, pattern []byte, wildcard byte) []int32 {
	var out []int32
	m := len(pattern)
	if m == 0 || m > len(text) {
		return out
	}
positions:
	for p := 0; p+m <= len(text); p++ {
		for i, c := range pattern {
			if c != wildcard && text[p+i] != c {
				continue positions
			}
		}
		out = append(out, int32(p))
	}
	return out
}

// Matcher answers wildcard queries using an FM-index built over the
// REVERSED target (the library's shared orientation).
type Matcher struct {
	idx  *fmindex.Index
	text []byte
}

// New wraps an index over reverse(text) with the forward text.
func New(idx *fmindex.Index, text []byte) *Matcher {
	return &Matcher{idx: idx, text: text}
}

// segment is a maximal wildcard-free run of the pattern.
type segment struct {
	off, end int
}

// Find returns all 0-based positions where pattern (with the given
// wildcard byte) occurs, sorted.
func (w *Matcher) Find(pattern []byte, wildcard byte) ([]int32, error) {
	m, n := len(pattern), len(w.text)
	if m == 0 {
		return nil, ErrPattern
	}
	if m > n {
		return nil, nil
	}
	segs := solidSegments(pattern, wildcard)
	if len(segs) == 0 {
		// All wildcards: every window matches.
		out := make([]int32, 0, n-m+1)
		for p := 0; p+m <= n; p++ {
			out = append(out, int32(p))
		}
		return out, nil
	}

	// Filter on the segment with the fewest occurrences: count all
	// segments first (cheap backward searches), then locate only the
	// rarest.
	bestIdx, bestCount := -1, 0
	var bestIv fmindex.Interval
	for i, seg := range segs {
		iv := w.idx.SearchReversed(pattern[seg.off:seg.end])
		if iv.Empty() {
			return nil, nil // a solid segment is absent: no occurrences
		}
		if bestIdx < 0 || iv.Len() < bestCount {
			bestIdx, bestCount, bestIv = i, iv.Len(), iv
		}
	}
	seg := segs[bestIdx]
	segLen := seg.end - seg.off
	var out []int32
	buf := w.idx.Locate(bestIv, nil)
	for _, p := range buf {
		fwd := int32(n) - p - int32(segLen)
		start := fwd - int32(seg.off)
		if start < 0 || int(start)+m > n {
			continue
		}
		if verify(w.text[start:int(start)+m], pattern, wildcard) {
			out = append(out, start)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func verify(window, pattern []byte, wildcard byte) bool {
	for i, c := range pattern {
		if c != wildcard && window[i] != c {
			return false
		}
	}
	return true
}

func solidSegments(pattern []byte, wildcard byte) []segment {
	var segs []segment
	i := 0
	for i < len(pattern) {
		if pattern[i] == wildcard {
			i++
			continue
		}
		j := i
		for j < len(pattern) && pattern[j] != wildcard {
			j++
		}
		segs = append(segs, segment{off: i, end: j})
		i = j
	}
	return segs
}
