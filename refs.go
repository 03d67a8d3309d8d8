package bwtmatch

import (
	"fmt"
	"sort"

	"bwtmatch/internal/alphabet"
)

// Reference is one named input sequence for NewRefs.
type Reference struct {
	Name string
	Seq  []byte // DNA over acgtACGT
}

// Ref describes one reference inside a built index.
type Ref struct {
	Name  string
	Start int // offset of the reference in the concatenated target
	Len   int
}

// RefMatch is one occurrence expressed in reference coordinates.
type RefMatch struct {
	Ref        string
	Pos        int // 0-based within the reference
	Mismatches int
}

// NewRefs builds one index over multiple reference sequences (e.g. the
// chromosomes of a genome). The sequences are concatenated internally;
// searches through SearchRefs report per-reference coordinates and
// discard alignments that would span a reference boundary (an artifact
// of concatenation, since the DNA alphabet has no spare separator
// symbol).
func NewRefs(refs []Reference, opts ...Option) (*Index, error) {
	cat, table, err := concatRefs(refs)
	if err != nil {
		return nil, err
	}
	idx, err := New(cat, opts...)
	if err != nil {
		return nil, err
	}
	idx.refs = table
	return idx, nil
}

// concatRefs validates and concatenates named references into one
// target, building the offset table (shared by NewRefs and
// NewShardedRefs).
func concatRefs(refs []Reference) ([]byte, []Ref, error) {
	if len(refs) == 0 {
		return nil, nil, fmt.Errorf("%w: no references", ErrInput)
	}
	var cat []byte
	table := make([]Ref, len(refs))
	for i, r := range refs {
		if len(r.Seq) == 0 {
			return nil, nil, fmt.Errorf("%w: reference %q is empty", ErrInput, r.Name)
		}
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("ref%d", i)
		}
		table[i] = Ref{Name: name, Start: len(cat), Len: len(r.Seq)}
		cat = append(cat, r.Seq...)
	}
	return cat, table, nil
}

// Refs returns the reference table; nil for single-sequence indexes
// built with New.
func (x *Index) Refs() []Ref { return x.refs }

// Resolve maps a concatenated-target window [pos, pos+length) to
// reference coordinates. ok is false when the window crosses a reference
// boundary or the index has no reference table.
func (x *Index) Resolve(pos, length int) (ref string, refPos int, ok bool) {
	return resolveRefs(x.refs, pos, length)
}

// resolveRefs is the coordinate mapping behind Resolve, shared by Index
// and ShardedIndex.
func resolveRefs(refs []Ref, pos, length int) (ref string, refPos int, ok bool) {
	if len(refs) == 0 {
		return "", 0, false
	}
	// Binary search for the reference containing pos.
	i := sort.Search(len(refs), func(i int) bool {
		return refs[i].Start+refs[i].Len > pos
	})
	if i == len(refs) {
		return "", 0, false
	}
	r := refs[i]
	if pos < r.Start || pos+length > r.Start+r.Len {
		return "", 0, false
	}
	return r.Name, pos - r.Start, true
}

// SearchRefs finds all k-mismatch occurrences of pattern in reference
// coordinates, dropping boundary-spanning artifacts. Results are ordered
// by reference, then position.
func (x *Index) SearchRefs(pattern []byte, k int) ([]RefMatch, error) {
	if len(x.refs) == 0 {
		return nil, fmt.Errorf("%w: index has no reference table (built with New, not NewRefs)", ErrInput)
	}
	matches, err := Search(x, pattern, k)
	if err != nil {
		return nil, err
	}
	out := make([]RefMatch, 0, len(matches))
	for _, m := range matches {
		if ref, pos, ok := x.Resolve(m.Pos, len(pattern)); ok {
			out = append(out, RefMatch{Ref: ref, Pos: pos, Mismatches: m.Mismatches})
		}
	}
	return out, nil
}

// RefSeq returns a decoded copy of one reference's sequence. A
// BaseOnly index, which holds no text, returns ErrBaseOnly, and a
// relative tenant returns the error of its text rebuild.
func (x *Index) RefSeq(r Ref) ([]byte, error) {
	text, err := x.packedText()
	if err != nil {
		return nil, err
	}
	return alphabet.Decode(text.Slice(nil, r.Start, r.Start+r.Len)), nil
}
