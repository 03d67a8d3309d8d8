package bench

import (
	"slices"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/amir"
	"bwtmatch/internal/naive"
	"bwtmatch/internal/suffixtree"
)

// Method is one matcher of the paper's comparison (§V): a method of the
// index, or one of the two baselines that scan the corpus text, Amir's
// filter and Cole's suffix tree, which live only here. Prepare builds
// what it needs to search a corpus, outside any timing; a baseline
// builds its structure over Corpus.Ranks once per corpus.
type Method struct {
	Name    string
	Prepare func(c *Corpus) (Search, error)
}

// Search answers one read at k with its matches in position order.
type Search func(read []byte, k int) ([]bwtmatch.Match, error)

func (m Method) String() string { return m.Name }

// IndexMethod wraps a method of the corpus index.
func IndexMethod(method bwtmatch.Method) Method {
	return Method{method.String(), func(c *Corpus) (Search, error) {
		return func(read []byte, k int) ([]bwtmatch.Match, error) {
			ms, _, err := bwtmatch.SearchMethod(c.Index, read, k, method)
			return ms, err
		}, nil
	}}
}

// onRanks adapts a baseline's search of a rank-encoded pattern.
func onRanks(find func(p []byte, k int) ([]bwtmatch.Match, error)) Search {
	return func(read []byte, k int) ([]bwtmatch.Match, error) {
		p, err := alphabet.Encode(read)
		if err != nil {
			return nil, err
		}
		return find(p, k)
	}
}

// Amir is the paper's filtering baseline: one Aho–Corasick pass finds
// the pattern's k+1 breaks, whose candidate alignments are verified.
var Amir = Method{"Amir", func(c *Corpus) (Search, error) {
	if c.amir == nil {
		packed, err := alphabet.Pack(c.Ranks)
		if err != nil {
			return nil, err
		}
		c.amir = amir.New(c.Ranks, packed)
	}
	return onRanks(func(p []byte, k int) ([]bwtmatch.Match, error) {
		found, _, err := c.amir.Find(p, k)
		ms := make([]bwtmatch.Match, len(found))
		for i, m := range found {
			ms[i] = bwtmatch.Match{Pos: int(m.Pos), Mismatches: m.Mismatches}
		}
		return ms, err
	}), nil
}}

// Cole is the paper's suffix-tree baseline, a brute-force k-mismatch
// walk of the text's suffix tree; it counts each match's mismatches.
var Cole = Method{"Cole", func(c *Corpus) (Search, error) {
	if c.cole == nil {
		t, err := suffixtree.Build(c.Ranks)
		if err != nil {
			return nil, err
		}
		c.cole = t
	}
	return onRanks(func(p []byte, k int) ([]bwtmatch.Match, error) {
		pos, _ := c.cole.FindK(p, k)
		slices.Sort(pos)
		ms := make([]bwtmatch.Match, len(pos))
		for i, q := range pos {
			ms[i] = bwtmatch.Match{Pos: int(q), Mismatches: naive.Hamming(c.Ranks[q:int(q)+len(p)], p, len(p))}
		}
		return ms, nil
	}), nil
}}

// Methods compared in the paper's figures, in its presentation order.
var Methods = []Method{IndexMethod(bwtmatch.BWTBaseline), Amir, Cole, IndexMethod(bwtmatch.AlgorithmA)}

// TimeMethod prepares method on c, then runs every read at the given k
// and returns the wall time of the searches alone and the total matches
// (so the work cannot be optimized away).
func TimeMethod(c *Corpus, reads [][]byte, k int, method Method) (time.Duration, int, error) {
	search, err := method.Prepare(c)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	total := 0
	for _, r := range reads {
		ms, err := search(r, k)
		if err != nil {
			return 0, 0, err
		}
		total += len(ms)
	}
	return time.Since(start), total, nil
}
