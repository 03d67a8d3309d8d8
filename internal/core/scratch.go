package core

import "bwtmatch/internal/mismatch"

// Scratch is the reusable per-search working set: the M-tree run and
// branch arenas, the interval memo, the φ buffers, the leaf list and the
// locate buffer. A warm Scratch lets FindScratch run without any heap
// allocation (DESIGN.md §8), which is where the map memo and the fresh
// per-query slices of the original implementation spent a large share
// of wall-clock.
//
// A Scratch is not safe for concurrent use; pin one per worker
// goroutine (bwtmatch.MapAllContext does) or recycle through a
// sync.Pool (bwtmatch's single-query entry points do). It holds no
// reference to any index, so one Scratch serves searches against
// different Searchers interchangeably.
type Scratch struct {
	memo   memoTable
	runs   []mrun
	brs    []mbranch
	out    []leaf
	phi    []int
	absent []int
	locBuf []int32
	src    mismatch.IterSource
	as     asearch
	// stats is the working counter block for an in-flight search. It
	// lives here (not on the caller's stack) because the traversal
	// stores its address in the heap-resident asearch, which would
	// otherwise force a per-call heap allocation of a stack Stats.
	stats Stats
}

// NewScratch returns an empty Scratch; buffers grow on first use and
// are retained across searches.
func NewScratch() *Scratch { return &Scratch{} }

// intBuf returns buf resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func intBuf(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// memoTable is an open-addressed, linear-probe hash table keyed by the
// packed BWT interval, replacing the per-search map[uint64]int32. Slots
// carry a generation stamp: begin() bumps the generation, invalidating
// every slot in O(1) instead of clearing or reallocating the table.
// Probe chains only ever run through slots of the current generation,
// so a stale slot terminates a lookup exactly like a never-used one.
type memoTable struct {
	slots []memoSlot
	mask  uint64
	gen   uint32
	used  int // live entries in the current generation
}

type memoSlot struct {
	key uint64
	val int32
	gen uint32
}

// memoMinSize is the initial slot count (a power of two).
const memoMinSize = 1024

// begin invalidates all entries for a new search. The generation wraps
// after 2^32-1 searches; on wrap every slot is hard-cleared so a stale
// stamp can never alias the restarted counter.
func (t *memoTable) begin() {
	if t.slots == nil {
		t.slots = make([]memoSlot, memoMinSize)
		t.mask = memoMinSize - 1
	}
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
	t.used = 0
}

// memoHash spreads the packed interval over the table (Fibonacci
// multiplicative hashing; the high bits are the well-mixed ones).
func memoHash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32
}

// get returns the run index recorded for key in the current generation.
func (t *memoTable) get(key uint64) (int32, bool) {
	i := memoHash(key) & t.mask
	for {
		s := &t.slots[i]
		if s.gen != t.gen {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
		i = (i + 1) & t.mask
	}
}

// put records key → val, overwriting a same-generation entry (last
// writer wins, as the derivation machinery requires: fallbacks
// strengthen weak entries).
func (t *memoTable) put(key uint64, val int32) {
	if t.used >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
	i := memoHash(key) & t.mask
	for {
		s := &t.slots[i]
		if s.gen != t.gen {
			s.key, s.val, s.gen = key, val, t.gen
			t.used++
			return
		}
		if s.key == key {
			s.val = val
			return
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table, re-inserting the current generation's
// entries. Growth only happens while a search is still discovering new
// intervals; a warm steady-state table never reallocates.
func (t *memoTable) grow() {
	old := t.slots
	t.slots = make([]memoSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.gen != t.gen {
			continue
		}
		i := memoHash(s.key) & t.mask
		for t.slots[i].gen == t.gen {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}
