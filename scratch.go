package bwtmatch

import (
	"fmt"
	"sync"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/core"
	"bwtmatch/internal/seedext"
)

// Scratch is the reusable working set of the search primitive
// (SearchMethodScratch): the encoded pattern, the M-tree arenas, the
// open-addressed interval memo, the locate buffer and the match
// buffer, all retained across calls. A warm Scratch makes the
// BWT-path methods (AlgorithmA, AlgorithmANoPhi, BWTBaseline, STree)
// allocation-free apart from growth of the caller's destination slice
// (see DESIGN.md §8).
//
// A Scratch is not safe for concurrent use: pin one per goroutine.
// It holds no reference to any Index, so the same Scratch can serve
// queries against different indexes.
type Scratch struct {
	core  *core.Scratch
	ranks []byte
	cms   []core.Match
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{core: core.NewScratch()} }

// scratchPool backs the entry points that do not thread their own
// Scratch (SearchMethodTraced and the free functions built on it, and
// the per-worker scratches of the batch driver).
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// encode validates a query and rank-encodes its pattern into sc's
// reusable buffer.
func (sc *Scratch) encode(pattern []byte, k int) ([]byte, error) {
	p, err := alphabet.AppendEncode(sc.ranks[:0], pattern)
	sc.ranks = p
	switch {
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	case len(p) == 0:
		return nil, fmt.Errorf("%w: empty pattern", ErrInput)
	case k < 0:
		return nil, fmt.Errorf("%w: negative k", ErrInput)
	}
	return p, nil
}

// SearchMethodScratch is the search primitive every other entry point
// is built on: it runs any Method with all working state in sc and
// appends the matches, sorted by position, to dst (which may be nil).
// With a warm sc and a dst of sufficient capacity a BWT-path search
// performs zero heap allocations; Seed allocates its own working set.
//
// A non-nil tr receives per-query telemetry. For the BWT-path methods
// it observes the full phase timeline (phi, traverse, locate) and
// per-event work counters; Seed runs inside a single span named after
// the method. A nil tr costs nothing.
func (x *Index) SearchMethodScratch(sc *Scratch, dst []Match, pattern []byte, k int, method Method, tr Tracer) ([]Match, Stats, error) {
	p, err := sc.encode(pattern, k)
	if err != nil {
		return dst, Stats{}, err
	}
	return x.search(sc, dst, p, k, method, tr, 0, x.Len())
}

// search runs method for the encoded, validated pattern p and appends
// every match whose shifted start base+Pos lies below end to dst: the
// whole result for a standalone index (base 0, end Len()), the owned
// matches in global coordinates for a shard.
func (x *Index) search(sc *Scratch, dst []Match, p []byte, k int, method Method, tr Tracer, base, end int) ([]Match, Stats, error) {
	if x.baseOnly() {
		return dst, Stats{}, ErrBaseOnly
	}
	var (
		cms []core.Match
		st  Stats
		err error
	)
	if cm, ok := coreMethods[method]; ok {
		var cs core.Stats
		cms, cs, err = x.searcher.FindScratch(sc.core, sc.cms[:0], p, k, cm, tr)
		st.fromCore(cs)
	} else if method == Seed {
		if tr != nil {
			tr.Begin(method.String())
		}
		cms, st, err = x.searchSeed(sc.cms[:0], p, k)
		if tr != nil {
			tr.End()
		}
	} else {
		return dst, Stats{}, fmt.Errorf("%w: unknown method %v", ErrInput, method)
	}
	sc.cms = cms
	if err != nil {
		return dst, Stats{}, err
	}
	for _, m := range cms {
		if g := base + int(m.Pos); g < end {
			dst = append(dst, Match{Pos: g, Mismatches: m.Mismatches})
		}
	}
	return dst, st, nil
}

// searchSeed runs Seed over the packed text, building its matcher on
// first use, and appends its matches to dst in position order.
func (x *Index) searchSeed(dst []core.Match, p []byte, k int) ([]core.Match, Stats, error) {
	var st Stats
	text, err := x.packedText()
	if err != nil {
		return dst, st, err
	}
	x.seedOnce.Do(func() { x.seedM = seedext.New(x.searcher.Index(), text) })
	ms, ss, err := x.seedM.Find(p, k)
	if err != nil {
		return dst, st, err // p is valid, so this is a Locate fault
	}
	st.Candidates = ss.Candidates
	for _, m := range ms {
		dst = append(dst, core.Match{Pos: m.Pos, Mismatches: m.Mismatches})
	}
	return dst, st, nil
}

// searchPooled runs m's primitive with a pooled Scratch; the matches
// land in a fresh slice the caller owns. It backs SearchMethodTraced
// on every layout.
func searchPooled(m Matcher, pattern []byte, k int, method Method, tr Tracer) ([]Match, Stats, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return m.SearchMethodScratch(sc, nil, pattern, k, method, tr)
}

// fromCore copies the counters a core search reports into the public
// Stats shape.
func (st *Stats) fromCore(cs core.Stats) {
	st.MTreeLeaves = cs.MTreeLeaves
	st.StepCalls = cs.StepCalls
	st.PhiSteps = cs.PhiSteps
	st.MemoHits = cs.MemoHits
	st.LocateNS = cs.LocateNS
}

// add accumulates another query's (or another shard's) counters into st;
// sharded searches sum per-shard work into one Stats.
func (st *Stats) add(o Stats) {
	st.MTreeLeaves += o.MTreeLeaves
	st.StepCalls += o.StepCalls
	st.PhiSteps += o.PhiSteps
	st.MemoHits += o.MemoHits
	st.Candidates += o.Candidates
	st.LocateNS += o.LocateNS
}
