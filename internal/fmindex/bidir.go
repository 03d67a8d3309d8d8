package fmindex

import (
	"slices"

	"bwtmatch/internal/alphabet"
)

// BiIndex is a bidirectional FM-index (the 2BWT of Lam et al.): two
// synchronized indexes over the text and its reverse, letting a match be
// extended by one character on EITHER side in O(1) rank work. The
// unidirectional index underlying the paper's search can only prepend;
// bidirectional extension is the substrate behind modern approximate
// seeding (maximal exact matches, 1-mismatch seeds) and is provided as an
// extension of the reproduction.
type BiIndex struct {
	fwd *Index // index of text: intervals hold rows prefixed by the pattern
	rev *Index // index of reverse(text): rows prefixed by reverse(pattern)
}

// BiInterval is a synchronized pair of intervals: Fwd is the pattern's
// interval in the forward index, Rev is reverse(pattern)'s interval in
// the reverse index. Both always have the same length.
type BiInterval struct {
	Fwd, Rev Interval
}

// Empty reports whether the match set is empty.
func (b BiInterval) Empty() bool { return b.Fwd.Empty() }

// Len returns the number of occurrences.
func (b BiInterval) Len() int { return b.Fwd.Len() }

// BuildBi constructs the bidirectional index over a rank-encoded text.
func BuildBi(text []byte, opts Options) (*BiIndex, error) {
	fwd, err := Build(text, opts)
	if err != nil {
		return nil, err
	}
	ri, err := Build(alphabet.Reverse(slices.Clone(text)), opts)
	if err != nil {
		return nil, err
	}
	return &BiIndex{fwd: fwd, rev: ri}, nil
}

// N returns the text length.
func (b *BiIndex) N() int { return b.fwd.N() }

// Fwd exposes the forward index (for locating occurrences).
func (b *BiIndex) Fwd() *Index { return b.fwd }

// Rev exposes the reverse index.
func (b *BiIndex) Rev() *Index { return b.rev }

// Full returns the interval pair of the empty pattern.
func (b *BiIndex) Full() BiInterval {
	return BiInterval{Fwd: b.fwd.Full(), Rev: b.rev.Full()}
}

// ExtendLeft extends the current pattern P to x·P. The forward interval
// is one backward-search step; the reverse interval is re-synchronized
// with the classic 2BWT rank identity: within Fwd, the rows of x·P are
// preceded (in the text) by x, and the Rev interval of reverse(P) is
// partitioned by that preceding character in rank order.
func (b *BiIndex) ExtendLeft(x byte, iv BiInterval) BiInterval {
	nf := b.fwd.Step(x, iv.Fwd)
	if nf.Empty() {
		return BiInterval{}
	}
	// Count window occurrences of every character smaller than x
	// (including the sentinel, which sorts first).
	var before int32
	if sp := b.fwd.sentinelIn(iv.Fwd); sp {
		before++
	}
	var lo, hi [alphabet.Bases]int32
	b.fwd.occAll(iv.Fwd.Lo, &lo)
	b.fwd.occAll(iv.Fwd.Hi, &hi)
	for y := byte(alphabet.A); y < x; y++ {
		before += hi[y-1] - lo[y-1]
	}
	nrLo := iv.Rev.Lo + before
	return BiInterval{Fwd: nf, Rev: Interval{nrLo, nrLo + (nf.Hi - nf.Lo)}}
}

// ExtendRight extends the current pattern P to P·x; the mirror image of
// ExtendLeft with the two indexes swapped.
func (b *BiIndex) ExtendRight(x byte, iv BiInterval) BiInterval {
	nr := b.rev.Step(x, iv.Rev)
	if nr.Empty() {
		return BiInterval{}
	}
	var before int32
	if sp := b.rev.sentinelIn(iv.Rev); sp {
		before++
	}
	var lo, hi [alphabet.Bases]int32
	b.rev.occAll(iv.Rev.Lo, &lo)
	b.rev.occAll(iv.Rev.Hi, &hi)
	for y := byte(alphabet.A); y < x; y++ {
		before += hi[y-1] - lo[y-1]
	}
	nfLo := iv.Fwd.Lo + before
	return BiInterval{Fwd: Interval{nfLo, nfLo + (nr.Hi - nr.Lo)}, Rev: nr}
}

// sentinelIn reports whether the BWT's sentinel position falls inside the
// interval — i.e. one of the interval's rows is preceded by the text
// start.
func (idx *Index) sentinelIn(iv Interval) bool {
	return idx.sentPos >= iv.Lo && idx.sentPos < iv.Hi
}

// SearchOutward matches pattern starting at the pivot character and
// extending alternately right then left, demonstrating bidirectional
// search; the result equals the forward index's Search(pattern).
func (b *BiIndex) SearchOutward(pattern []byte, pivot int) BiInterval {
	if len(pattern) == 0 {
		return b.Full()
	}
	if pivot < 0 || pivot >= len(pattern) {
		pivot = len(pattern) / 2
	}
	iv := b.ExtendRight(pattern[pivot], b.Full())
	l, r := pivot-1, pivot+1
	for !iv.Empty() {
		switch {
		case r < len(pattern):
			iv = b.ExtendRight(pattern[r], iv)
			r++
		case l >= 0:
			iv = b.ExtendLeft(pattern[l], iv)
			l--
		default:
			return iv
		}
	}
	return BiInterval{}
}
