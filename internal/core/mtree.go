package core

import (
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/mismatch"
	"bwtmatch/internal/obs"
)

// Algorithm A (paper §IV-C/D). The S-tree is explored depth-first, but
// explored subtrees are recorded in a hash table keyed by their BWT
// interval. A BWT interval determines the entire structure of the subtree
// below it (which continuations exist, with which intervals) independently
// of the pattern position it is compared against; only the match/mismatch
// classification depends on the alignment. So when an interval recurs at a
// different pattern position, the cached structure is *derived* against
// the new alignment using the pattern's self-mismatch information (the
// R_ij stream) instead of re-searching the BWT.
//
// The cached form is the paper's M-tree: maximal match runs (w.r.t. the
// alignment they were explored under) are collapsed into run nodes;
// mismatching children hang off run levels as branches. Derivation jumps
// between events (branch offsets, alignment-mismatch offsets from the
// R_ij stream, and the run end), so a long match run costs O(#events),
// the per-path O(k) the paper claims.
//
// Engineering refinements on top of the paper (DESIGN.md §3.4/3.5):
//
//   - Only multi-row intervals are structured and memoized. A one-row
//     interval has exactly one continuation per level, so its subtree is a
//     chain; chains are walked by a tight, allocation-free loop
//     (singletonWalk) both during exploration and during derivation. This
//     keeps the hash table proportional to the repeat structure of the
//     target rather than to the whole S-tree.
//
//   - All M-tree state lives in flat, pointer-free arenas (runs and
//     branches addressed by index, the memo keyed by the packed interval),
//     so a search allocates a handful of slices rather than one node per
//     S-tree vertex. Interior run intervals are recomputed by re-stepping
//     the run's (known) match characters when a fallback needs one.
//
//   - Exploration and derivation both honor the φ(i) lower bound (§IV-A):
//     any completion of r[i..m] needs at least φ[i] mismatches regardless
//     of alignment, so a node whose budget is below φ of its own alignment
//     position is pruned. Branches the cached exploration pruned this way
//     are kept as interval stubs, so a later alignment with a laxer φ can
//     resume them live.
//
//   - Under-specified repeat cases fall back to live search: a repeat
//     arriving with a larger remaining budget than the cached exploration
//     used, and continuations the cached exploration never needed (deeper
//     alignments, budget-starved branch sets). Fallbacks re-enter the same
//     memoized machinery, so each interval is re-explored at most k+1
//     times.

// structuredMin is the smallest interval width that is structured and
// memoized. Narrower intervals have subtrees so small that re-walking
// them live is cheaper than recording and deriving them; wider intervals
// are exactly the repeat regions where the paper's reuse pays off.
const structuredMin = 64

// runEnd describes why an mrun stopped.
type runEnd uint8

const (
	endComplete runEnd = iota // reached pattern depth m under its alignment
	endDead                   // the match continuation interval was empty
	endPhiCut                 // pruned by the φ bound of its own alignment
	endNarrow                 // the match continuation narrowed below structuredMin
)

// branchKind classifies an mbranch.
type branchKind uint8

const (
	branchStructured branchKind = iota // child indexes the cached subtree
	branchNarrow                       // below structuredMin, walked live on use
	branchStub                         // φ-pruned during exploration
)

const nilIdx = int32(-1)

// mrun is one M-tree node: a maximal run of characters that matched the
// pattern under the alignment the run was explored at (basePos), plus a
// linked list of mismatching branches hanging off run levels.
type mrun struct {
	entryIv     fmindex.Interval // interval of the run's entry node
	endIv       fmindex.Interval // interval after runLen characters
	basePos     int32            // pattern offset at run entry during exploration
	bRem        int32            // relative mismatch budget the exploration had
	runLen      int32            // number of (cached-alignment) match characters
	firstBranch int32            // head of the branch list (nilIdx if none)
	end         runEnd
}

// mbranch hangs off the run node after off characters; it consumes
// character ch (≠ the pattern character of the run's alignment) at pattern
// offset basePos+off. Branches of one run are linked in increasing off.
type mbranch struct {
	iv    fmindex.Interval
	off   int32
	child int32 // run index for branchStructured
	next  int32
	ch    byte
	kind  branchKind
}

// asearch is the per-search state of Algorithm A. It lives inside a
// Scratch rather than being heap-allocated per query; the slice headers
// are borrowed from the Scratch at entry and written back at exit so
// their grown capacity carries over to the next search.
type asearch struct {
	s     *Searcher
	r     []byte
	m, k  int
	src   *mismatch.IterSource
	phi   []int // min(φ, k+1) lower bounds; all-zero when the φ bound is disabled
	memo  *memoTable
	runs  []mrun
	brs   []mbranch
	out   []leaf
	stats *Stats
	tr    obs.Tracer // nil unless the query is traced
}

// leafTerm records a maximal-path terminal that is not a surviving leaf
// (φ cut, dead end, exhausted budget): the paper's n′ counts these too.
// Every MTreeLeaves increment goes through leafTerm or emit, so a traced
// query sees exactly Stats.MTreeLeaves EvLeaf events.
func (a *asearch) leafTerm() {
	a.stats.MTreeLeaves++
	if a.tr != nil {
		a.tr.Emit(obs.EvLeaf)
	}
}

// memoHit records a repeated interval resolved by derivation (a merge in
// the paper's terms) at run ri under alignment position j.
func (a *asearch) memoHit(ri int32, j int) {
	a.stats.MemoHits++
	if a.tr != nil {
		a.tr.Emit(obs.EvMerge,
			obs.Arg{Key: "run", Val: int64(ri)},
			obs.Arg{Key: "pos", Val: int64(j)})
	}
}

// fallback records a derivation that had to resume live search.
func (a *asearch) fallback() {
	a.stats.LiveFallbacks++
	if a.tr != nil {
		a.tr.Emit(obs.EvFallback)
	}
}

func ivKey(iv fmindex.Interval) uint64 {
	return uint64(uint32(iv.Lo))<<32 | uint64(uint32(iv.Hi))
}

// traverse runs the k-mismatch walk for one pattern and returns its
// surviving leaves. The four BWT-path methods are this one walk under two
// switches: usePhi enables the φ(i) bound of [34] (§IV-A), capped at k+1
// (when off, φ is all zeros), and useMemo enables Algorithm A's M-tree
// memo (§IV-C/D). With the memo off the walk is smallWalk from the root —
// the S-tree of [34] with the singleton shortcut — and neither the memo
// table nor the pattern's mismatch source is touched. All working memory
// comes from sc; a warm Scratch makes this allocation-free.
func (s *Searcher) traverse(sc *Scratch, pattern []byte, k int, usePhi, useMemo bool, stats *Stats, tr obs.Tracer) []leaf {
	a := &sc.as
	*a = asearch{
		s:     s,
		r:     pattern,
		m:     len(pattern),
		k:     k,
		src:   &sc.src,
		memo:  &sc.memo,
		runs:  sc.runs[:0],
		brs:   sc.brs[:0],
		out:   sc.out[:0],
		stats: stats,
		tr:    tr,
	}
	defer func() {
		sc.runs, sc.brs, sc.out = a.runs, a.brs, a.out
		a.s, a.r, a.src, a.memo, a.stats, a.tr = nil, nil, nil, nil, nil, nil
	}()
	if usePhi {
		if tr != nil {
			tr.Begin("phi")
		}
		a.phi, stats.PhiSteps = s.computePhi(sc, pattern, k)
		if tr != nil {
			tr.End(
				obs.Arg{Key: "phi0", Val: int64(a.phi[0])},
				obs.Arg{Key: "step_calls", Val: int64(stats.PhiSteps)})
		}
	} else {
		sc.phi = intBuf(sc.phi, len(pattern)+1)
		clear(sc.phi)
		a.phi = sc.phi
	}
	if k < a.phi[0] {
		return nil
	}
	if !useMemo {
		a.smallWalk(s.idx.Full(), 0, k, 0)
		return a.out
	}
	sc.memo.begin()
	sc.src.Reset(pattern)
	a.walk(s.idx.Full(), 0, k, 0)
	return a.out
}

// walk searches the subtree under iv with the next pattern character r[j],
// brem spendable mismatches and e mismatches already on the path, emitting
// every surviving leaf. It dispatches between the singleton fast path, a
// cached derivation, and a fresh exploration. The caller must have
// established brem >= phi[j].
func (a *asearch) walk(iv fmindex.Interval, j, brem, e int) {
	if iv.Len() < structuredMin {
		a.smallWalk(iv, j, brem, e)
		return
	}
	if ri, ok := a.memo.get(ivKey(iv)); ok && int(a.runs[ri].bRem) >= brem {
		a.memoHit(ri, j)
		a.derive(ri, j, brem, e)
		return
	}
	a.exploreFresh(iv, j, brem, e)
}

// smallWalk is a plain φ-pruned DFS over iv's subtree — no memoization,
// no structure, no allocation. Algorithm A sends narrow intervals here:
// their subtrees degrade into a handful of singleton chains almost
// immediately, so this is the cheapest way through them. With the memo
// off it walks the whole S-tree from the root.
func (a *asearch) smallWalk(iv fmindex.Interval, j, brem, e int) {
	if iv.Len() == 1 {
		a.singletonWalk(iv, j, brem, e)
		return
	}
	if j == a.m {
		a.emit(iv, e, false)
		return
	}
	if brem < a.phi[j] {
		a.leafTerm() // φ-pruned path terminal
		return
	}
	if brem == 0 {
		a.exactWalk(iv, j, e)
		return
	}
	// Every child is affordable, and a multi-row interval holds at most
	// one sentinel row, so at least one child is non-empty.
	var kids [alphabet.Bases]fmindex.Interval
	a.s.idx.StepAll(iv, &kids)
	a.stats.StepCalls++
	a.stats.Nodes++
	for x := byte(alphabet.A); x <= alphabet.T; x++ {
		civ := kids[x-1]
		if civ.Empty() {
			continue
		}
		cost := 0
		if x != a.r[j] {
			cost = 1
		}
		if civ.Len() == 1 {
			a.singletonWalk(civ, j+1, brem-cost, e+cost)
		} else {
			a.smallWalk(civ, j+1, brem-cost, e+cost)
		}
	}
}

// exactWalk continues a multi-row interval whose path has no mismatch
// left to spend. Its only possible child is the pattern's own
// character, so each level is one Step instead of a StepAll — a plain
// exact backward search — and counts one node and one step, as the
// StepAll it replaces did. The caller has checked j < m and φ[j] = 0;
// φ never increases along the pattern, so no later level is φ-cut.
func (a *asearch) exactWalk(iv fmindex.Interval, j, e int) {
	for {
		iv = a.s.idx.Step(a.r[j], iv)
		a.stats.StepCalls++
		a.stats.Nodes++
		j++
		switch {
		case iv.Empty():
			a.leafTerm() // dead end
			return
		case iv.Len() == 1:
			a.singletonWalk(iv, j, 0, e)
			return
		case j == a.m:
			a.emit(iv, e, false)
			return
		}
	}
}

// singletonWalk follows the unique continuation chain of a one-row
// interval, spending mismatches as the chain's characters disagree with
// the pattern. No structure is built: deriving a chain would cost the same
// as re-walking it.
func (a *asearch) singletonWalk(iv fmindex.Interval, j, brem, e int) {
	for {
		if j == a.m {
			a.emit(iv, e, false)
			return
		}
		if brem < a.phi[j] {
			a.leafTerm() // φ-pruned path terminal
			return
		}
		// With no mismatch left only r[j] continues the path: the index
		// skips the rank query when the row holds another character.
		want := fmindex.AnyBase
		if brem == 0 {
			want = a.r[j]
		}
		x, child, ok := a.s.idx.StepSingletonIf(iv, want)
		a.stats.StepCalls++
		a.stats.Nodes++
		if !ok {
			a.leafTerm() // the text start, or a mismatch with no budget left
			return
		}
		if x != a.r[j] {
			brem--
			e++
		}
		iv = child
		j++
	}
}

// exploreFresh explores a multi-row interval with the BWT, emitting leaves
// as they are reached and recording the subtree in the memo for later
// derivation. Branch children consult the memo again, so repeats are
// caught at any level. It returns the new run's index.
func (a *asearch) exploreFresh(iv fmindex.Interval, j, brem, e int) int32 {
	if a.tr != nil {
		a.tr.Emit(obs.EvExpand,
			obs.Arg{Key: "rows", Val: int64(iv.Len())},
			obs.Arg{Key: "pos", Val: int64(j)})
	}
	ri := int32(len(a.runs))
	a.runs = append(a.runs, mrun{
		entryIv:     iv,
		basePos:     int32(j),
		bRem:        int32(brem),
		firstBranch: nilIdx,
	})
	lastBranch := nilIdx

	cur := iv
	t := j
	var end runEnd
	var kids [alphabet.Bases]fmindex.Interval
	for {
		if t == a.m {
			end = endComplete
			a.emit(cur, e, false)
			break
		}
		if brem < a.phi[t] {
			end = endPhiCut
			a.leafTerm() // φ-pruned path terminal
			break
		}
		a.stats.StepCalls++
		a.stats.Nodes++
		var matchIv fmindex.Interval
		if brem == 0 {
			// No mismatch left to spend: the match child is the only one.
			matchIv = a.s.idx.Step(a.r[t], cur)
		} else {
			a.s.idx.StepAll(cur, &kids)
			matchIv = kids[a.r[t]-1]
			for x := byte(alphabet.A); x <= alphabet.T; x++ {
				civ := kids[x-1]
				if x == a.r[t] || civ.Empty() {
					continue
				}
				b := mbranch{off: int32(t - j), ch: x, iv: civ, child: nilIdx, next: nilIdx}
				switch {
				case civ.Len() < structuredMin:
					b.kind = branchNarrow
					if brem-1 >= a.phi[t+1] {
						a.smallWalk(civ, t+1, brem-1, e+1)
					}
				case brem-1 >= a.phi[t+1]:
					b.kind = branchStructured
					b.child = a.exploreBranch(civ, t+1, brem-1, e+1)
				default:
					b.kind = branchStub
				}
				bi := int32(len(a.brs))
				a.brs = append(a.brs, b)
				if lastBranch == nilIdx {
					a.runs[ri].firstBranch = bi
				} else {
					a.brs[lastBranch].next = bi
				}
				lastBranch = bi
			}
		}
		if matchIv.Empty() {
			end = endDead
			break
		}
		cur = matchIv
		t++
		if matchIv.Len() < structuredMin {
			end = endNarrow
			a.smallWalk(matchIv, t, brem, e)
			break
		}
	}
	run := &a.runs[ri]
	run.endIv = cur
	run.runLen = int32(t - j)
	run.end = end
	// Register only the finished run: a forced-extension descendant can
	// carry the same interval and must not hit a half-built entry. The
	// last writer wins, which also lets fallbacks strengthen weak entries.
	a.memo.put(ivKey(iv), ri)
	return ri
}

// exploreBranch resolves a structured branch child: a memo hit is derived
// (emitting its leaves under the current path) and reused; otherwise the
// child is explored fresh.
func (a *asearch) exploreBranch(iv fmindex.Interval, j, brem, e int) int32 {
	if ri, ok := a.memo.get(ivKey(iv)); ok && int(a.runs[ri].bRem) >= brem {
		a.memoHit(ri, j)
		a.derive(ri, j, brem, e)
		return ri
	}
	return a.exploreFresh(iv, j, brem, e)
}

// runIvAt returns the interval of run ri's node after t characters,
// re-stepping the run's match characters when t is interior (fallback
// paths only; the ends are stored).
func (a *asearch) runIvAt(ri int32, t int) fmindex.Interval {
	run := &a.runs[ri]
	switch t {
	case 0:
		return run.entryIv
	case int(run.runLen):
		return run.endIv
	}
	iv := run.entryIv
	for i := 0; i < t; i++ {
		iv = a.s.idx.Step(a.r[int(run.basePos)+i], iv)
		a.stats.StepCalls++
	}
	return iv
}

// derive walks a cached run under the (possibly different) alignment jNew
// with rem remaining mismatches and e mismatches already spent, emitting
// every surviving leaf. The caller must have established rem >= phi[jNew].
func (a *asearch) derive(ri int32, jNew, rem, e int) {
	if rem > int(a.runs[ri].bRem) {
		// The cached exploration pruned branches this alignment can
		// afford: re-explore (memoized, replaces the weaker entry).
		a.fallback()
		a.exploreFresh(a.runs[ri].entryIv, jNew, rem, e)
		return
	}
	basePos := int(a.runs[ri].basePos)
	runLen := int(a.runs[ri].runLen)
	runBRem := int(a.runs[ri].bRem)
	bi := a.runs[ri].firstBranch
	needDepth := a.m - jNew

	it := a.src.Iter(basePos+1, jNew+1)
	nextMM := -1 // 0-based run offset of the next new-alignment mismatch
	if p, ok := it.Next(); ok {
		nextMM = int(p) - 1
	}

	budget := rem
	for {
		// Jump to the next event offset: a branch point, an alignment
		// mismatch, the run's end, or the pattern's end.
		t := needDepth
		if runLen < t {
			t = runLen
		}
		if bi != nilIdx && int(a.brs[bi].off) < t {
			t = int(a.brs[bi].off)
		}
		if nextMM >= 0 && nextMM < t {
			t = nextMM
		}

		if t == needDepth {
			a.emit(a.runIvAt(ri, t), e, true)
			return
		}
		if budget < a.phi[jNew+t] {
			// No completion of r[jNew+t..] fits the remaining budget, for
			// any continuation below this node.
			a.leafTerm() // φ-pruned path terminal
			return
		}
		// Branches leaving the node after t run characters.
		for bi != nilIdx && int(a.brs[bi].off) == t {
			b := a.brs[bi]
			bi = b.next
			cost := 0
			if b.ch != a.r[jNew+t] {
				cost = 1
			}
			nb := budget - cost
			if nb < 0 || nb < a.phi[jNew+t+1] {
				continue
			}
			switch b.kind {
			case branchNarrow:
				a.smallWalk(b.iv, jNew+t+1, nb, e+cost)
			case branchStub:
				// φ-pruned under the cached alignment; this alignment can
				// afford it, so explore it now.
				a.fallback()
				a.exploreFresh(b.iv, jNew+t+1, nb, e+cost)
			default:
				a.derive(b.child, jNew+t+1, nb, e+cost)
			}
		}
		if t == runLen {
			a.deriveRunEnd(ri, t, jNew, budget, e)
			return
		}
		// Consume the run character at offset t. Under the cached
		// alignment it is a match; under the new one it mismatches
		// exactly at the R_ij offsets — and t is such an offset here,
		// since branch-only and end events were handled above.
		if t == nextMM {
			if budget == 0 {
				// Cannot follow the run character. The only continuation
				// is the new alignment's match character, which differs
				// from the run character here; it lives among the
				// branches just processed when they were recorded at all.
				if runBRem == 0 {
					a.fallback()
					a.walkLive(a.runIvAt(ri, t), jNew+t, 0, e)
				}
				return
			}
			budget--
			e++
			if p, ok := it.Next(); ok {
				nextMM = int(p) - 1
			} else {
				nextMM = -1
			}
		}
	}
}

// walkLive resumes live search at iv, bypassing a memo entry known to be
// insufficient for this (alignment, budget) pair.
func (a *asearch) walkLive(iv fmindex.Interval, j, brem, e int) {
	if iv.Len() < structuredMin {
		a.smallWalk(iv, j, brem, e)
		return
	}
	a.exploreFresh(iv, j, brem, e)
}

// deriveRunEnd handles a cached run that stops (dead end, φ cut, cached
// leaf, or singleton narrowing) before the new alignment's required depth.
// The φ bound for the node at offset t has already been checked.
func (a *asearch) deriveRunEnd(ri int32, t, jNew, budget, e int) {
	endIv := a.runs[ri].endIv
	switch a.runs[ri].end {
	case endNarrow:
		a.smallWalk(endIv, jNew+t, budget, e)
	case endComplete, endPhiCut:
		// A cached leaf that is interior for the deeper new alignment, or
		// a cut by the cached alignment's φ bound: this alignment passed
		// its own checks, so resume live.
		a.fallback()
		a.walkLive(endIv, jNew+t, budget, e)
	case endDead:
		oldMatch := a.r[int(a.runs[ri].basePos)+t]
		newMatch := a.r[jNew+t]
		if newMatch != oldMatch && a.runs[ri].bRem == 0 {
			// The new match character's continuation was never probed.
			a.fallback()
			a.walkLive(endIv, jNew+t, budget, e)
			return
		}
		// Otherwise every continuation was either the (empty) old match
		// character or a recorded branch, already handled by the caller.
		a.leafTerm()
	}
}

// emit records a surviving leaf.
func (a *asearch) emit(iv fmindex.Interval, e int, derived bool) {
	a.stats.MTreeLeaves++
	if derived {
		a.stats.DerivedLeaves++
	}
	if a.tr != nil {
		a.tr.Emit(obs.EvLeaf,
			obs.Arg{Key: "mism", Val: int64(e)},
			obs.Arg{Key: "rows", Val: int64(iv.Len())})
	}
	a.out = append(a.out, leaf{iv: iv, mism: e})
}
