// Package amir implements the filtering k-mismatch matcher the paper uses
// as its "Amir's method" baseline (§V): the pattern is cut into pieces
// ("breaks"), exact occurrences of the pieces are found in one pass over
// the target, candidate alignments are marked, and every surviving
// candidate is verified.
//
// The full Amir–Lewenstein–Porat O(n·sqrt(k·log k)) algorithm relies on
// convolutions over periodic stretches; per DESIGN.md §3.6 this package
// substitutes the practical filter with the same structure: k+1 disjoint
// blocks (pigeonhole: an occurrence with at most k mismatches contains at
// least one block exactly), Aho–Corasick for the single-pass multi-block
// scan, and bounded-mismatch verification. Break boundaries are nudged
// toward aperiodic blocks as the paper's Fig. 10 discussion prescribes,
// which keeps the number of spurious candidates low on repetitive targets.
package amir

import (
	"errors"
	"fmt"
	"slices"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/exact"
)

// Stats reports filter effectiveness for one query.
type Stats struct {
	Blocks     int // number of exact seed blocks
	Seeds      int // total seed hits in the target
	Candidates int // distinct candidate alignments verified
	Matches    int
}

// Match is one verified occurrence.
type Match struct {
	Pos        int32
	Mismatches int
}

// Matcher answers k-mismatch queries against one target text by
// filtering + verification. It keeps only references to the text, in
// both encodings; all per-query state is local.
type Matcher struct {
	text   []byte           // rank-encoded, for the Aho–Corasick scan
	packed *alphabet.Packed // the same text, for verification
}

// ErrPattern reports an unusable pattern.
var ErrPattern = errors.New("amir: invalid pattern")

// New returns a Matcher over a rank-encoded text and its packed form.
func New(text []byte, packed *alphabet.Packed) *Matcher {
	return &Matcher{text: text, packed: packed}
}

// Find returns all k-mismatch occurrences of pattern, sorted by position.
func (a *Matcher) Find(pattern []byte, k int) ([]Match, Stats, error) {
	var st Stats
	m, n := len(pattern), len(a.text)
	if m == 0 || k < 0 {
		return nil, st, ErrPattern
	}
	if m > n {
		return nil, st, nil
	}
	pat, err := alphabet.Pack(pattern)
	if err != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrPattern, err)
	}
	if k >= m {
		out := All(a.packed, pat)
		st.Matches = len(out)
		return out, st, nil
	}

	offsets := Breaks(pattern, k)
	st.Blocks = len(offsets)
	blocks := make([][]byte, len(offsets))
	for i, off := range offsets {
		end := m
		if i+1 < len(offsets) {
			end = offsets[i+1]
		}
		blocks[i] = pattern[off:end]
	}

	// One pass: every block hit proposes the alignment start that would
	// place the block at its pattern offset.
	ac := exact.NewAhoCorasick(blocks)
	var candidates []int32
	ac.Scan(a.text, func(h exact.Hit) bool {
		st.Seeds++
		start := h.Pos - int32(offsets[h.PatternID])
		if start >= 0 && int(start)+m <= n {
			candidates = append(candidates, start)
		}
		return true
	})

	slices.Sort(candidates)
	candidates = slices.Compact(candidates)
	out := Verify(a.packed, pat, k, candidates)
	st.Candidates, st.Matches = len(candidates), len(out)
	return out, st, nil
}

// All returns every alignment of pattern in text with its Hamming
// distance: the answer when k >= len(pattern), where every alignment
// trivially qualifies. pattern must be no longer than text.
func All(text, pattern *alphabet.Packed) []Match {
	m := pattern.Len()
	out := make([]Match, 0, text.Len()-m+1)
	for p := 0; p+m <= text.Len(); p++ {
		out = append(out, Match{Pos: int32(p), Mismatches: text.Mismatches(p, pattern, m)})
	}
	return out
}

// Verify checks candidate alignment starts of pattern in text, sorted
// and without repeats, each leaving room for the whole pattern. It
// counts mismatches word-parallel and stops a candidate once past k,
// and returns the occurrences in position order.
func Verify(text, pattern *alphabet.Packed, k int, candidates []int32) []Match {
	out := make([]Match, 0, len(candidates))
	for _, p := range candidates {
		if d := text.Mismatches(int(p), pattern, k); d <= k {
			out = append(out, Match{Pos: p, Mismatches: d})
		}
	}
	return out
}

// Breaks partitions pattern (of length m > k) into k+1 disjoint,
// non-empty blocks and returns their start offsets (offsets[0] == 0).
// Boundaries start at the even partition and are then nudged by up to
// nudgeWindow positions to raise the period of short-period ("periodic
// stretch") blocks, imitating the paper's break selection.
func Breaks(pattern []byte, k int) []int {
	m := len(pattern)
	parts := k + 1
	offsets := make([]int, parts)
	for i := 1; i < parts; i++ {
		offsets[i] = i * m / parts
	}
	const nudgeWindow = 2
	for i := 1; i < parts; i++ {
		lo := offsets[i-1] + 1
		hi := m - (parts - i) // leave room for the remaining blocks
		best, bestScore := lo, -1
		for d := -nudgeWindow; d <= nudgeWindow; d++ {
			o := offsets[i] + d
			if o < lo || o > hi {
				continue
			}
			end := m
			if i+1 < parts {
				end = offsets[i+1]
				if end <= o {
					end = o + 1
				}
			}
			score := exact.Period(pattern[o:end])
			if score > bestScore {
				best, bestScore = o, score
			}
		}
		offsets[i] = best
	}
	return offsets
}
