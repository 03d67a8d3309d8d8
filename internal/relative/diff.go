// Package relative implements the delta layer of a relative FM-index:
// a tenant BWT expressed as a common subsequence of a shared base BWT
// plus tenant-only insertions, with rank/select bitvectors bridging
// tenant occ queries to base occ queries plus small corrections (after
// "Reusing an FM-index", cf. PAPERS.md). The package knows nothing
// about FM-index internals — it consumes two byte sequences and serves
// positional/rank queries over their alignment.
package relative

import (
	"encoding/binary"
	"math/bits"
)

// Common finds a common subsequence of a and b and calls emit(ai, bi)
// once per matched pair, in increasing order of both indexes. It is
// Aligner.Common with a scratch of its own; a caller that diffs many
// blocks keeps one Aligner instead.
func Common(a, b []byte, maxD int, emit func(ai, bi int)) {
	var al Aligner
	al.Common(a, b, maxD, emit)
}

// Aligner holds the working memory of Common: the furthest-reaching
// trace of the Myers search and the pair buffer of its backtrack. One
// Aligner serves any number of sequential diffs without allocating
// once its buffers have grown; it is not safe for concurrent use.
type Aligner struct {
	// trace holds, for each round d, the furthest-reaching x of the d+1
	// diagonals k = -d, -d+2, ..., d that round reaches, at offset
	// d(d+1)/2 + (k+d)/2. Round d reads only round d-1's diagonals
	// k±1, so the row is the whole state, and the backtrack reads the
	// same rows.
	trace []int32
	pairs []int32 // backtracked pairs, (ai, bi) flattened, last first
}

// Common finds a common subsequence of a and b and calls emit(ai, bi)
// once per matched pair, in increasing order of both indexes. It trims
// the shared prefix and suffix first, then runs Myers' O(ND) diff over
// the middle with the edit-distance budget capped at maxD; if the
// middle needs more than maxD edits its pairs are simply not emitted.
// Any common subsequence — including an empty one — yields a correct
// (just larger) delta, so the cap trades delta size for build time.
func (al *Aligner) Common(a, b []byte, maxD int, emit func(ai, bi int)) {
	// Shared prefix.
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		emit(p, p)
		p++
	}
	a2, b2 := a[p:], b[p:]
	// Shared suffix (not overlapping the prefix).
	s := 0
	for s < len(a2) && s < len(b2) && a2[len(a2)-1-s] == b2[len(b2)-1-s] {
		s++
	}
	mid1, mid2 := a2[:len(a2)-s], b2[:len(b2)-s]
	if len(mid1) > 0 && len(mid2) > 0 {
		al.myers(mid1, mid2, maxD, p, emit)
	}
	for i := s; i > 0; i-- {
		emit(len(a)-i, len(b)-i)
	}
}

// myers runs the classic Myers greedy O(ND) LCS, keeping each round's
// furthest-reaching diagonals, then backtracks to emit the matched
// pairs (offset by off on both sides) in forward order. If the edit
// distance exceeds maxD nothing is emitted.
func (al *Aligner) myers(a, b []byte, maxD int, off int, emit func(ai, bi int)) {
	n, m := len(a), len(b)
	if d := n + m; d < maxD {
		maxD = d
	}
	if maxD < 0 {
		return // no budget; the trace size below would be garbage
	}
	if need := (maxD + 1) * (maxD + 2) / 2; len(al.trace) < need {
		al.trace = make([]int32, need)
	}
	found := -1
search:
	for d := 0; d <= maxD; d++ {
		prev := al.trace[(d-1)*d/2:][:d]
		cur := al.trace[d*(d+1)/2:][:d+1]
		for i := range cur { // diagonal k = 2i - d
			var x int
			switch {
			case d == 0:
				x = 0
			case i == 0 || (i != d && prev[i-1] < prev[i]):
				x = int(prev[i]) // down from k+1
			default:
				x = int(prev[i-1]) + 1 // right from k-1
			}
			y := x - (2*i - d)
			x, y = snake(a, b, x, y)
			cur[i] = int32(x)
			if x >= n && y >= m {
				found = d
				break search
			}
		}
	}
	if found < 0 {
		return // budget exceeded: contribute no pairs for this block
	}
	// Backtrack from (n, m) through the rounds; diagonal runs are the
	// matches, collected in reverse and replayed forward.
	rev := al.pairs[:0]
	x, y := n, m
	for d := found; d >= 0 && (x > 0 || y > 0); d-- {
		prevX, prevY := 0, 0
		if d > 0 {
			prev := al.trace[(d-1)*d/2:][:d]
			i := (x - y + d) / 2
			if i == 0 || (i != d && prev[i-1] < prev[i]) {
				prevX = int(prev[i])
				prevY = prevX - (x - y + 1)
			} else {
				prevX = int(prev[i-1])
				prevY = prevX - (x - y - 1)
			}
		}
		for x > prevX && y > prevY {
			x--
			y--
			rev = append(rev, int32(x), int32(y))
		}
		x, y = prevX, prevY
	}
	for i := len(rev) - 2; i >= 0; i -= 2 {
		emit(off+int(rev[i]), off+int(rev[i+1]))
	}
	al.pairs = rev
}

// snake follows the diagonal from (x, y) while a[x] == b[y], eight
// bytes per step while both sides have eight left.
func snake(a, b []byte, x, y int) (int, int) {
	for x+8 <= len(a) && y+8 <= len(b) {
		if w := binary.LittleEndian.Uint64(a[x:]) ^ binary.LittleEndian.Uint64(b[y:]); w != 0 {
			k := bits.TrailingZeros64(w) / 8
			return x + k, y + k
		}
		x += 8
		y += 8
	}
	for x < len(a) && y < len(b) && a[x] == b[y] {
		x++
		y++
	}
	return x, y
}
