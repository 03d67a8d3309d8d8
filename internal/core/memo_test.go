package core

import (
	"math/rand"
	"testing"

	"bwtmatch/internal/fmindex"
)

// TestMemoTableBasic exercises put/get within one generation.
func TestMemoTableBasic(t *testing.T) {
	var m memoTable
	m.begin()
	if _, ok := m.get(42); ok {
		t.Fatal("empty table reported a hit")
	}
	m.put(42, 7)
	if v, ok := m.get(42); !ok || v != 7 {
		t.Fatalf("get(42) = %d, %v; want 7, true", v, ok)
	}
	m.put(42, 9) // last writer wins (fallbacks strengthen weak entries)
	if v, ok := m.get(42); !ok || v != 9 {
		t.Fatalf("after overwrite: get(42) = %d, %v; want 9, true", v, ok)
	}
}

// TestMemoTableGenerationClear proves the O(1) generation-stamp clear:
// after begin(), no entry from any earlier generation is visible, even
// without touching the slots.
func TestMemoTableGenerationClear(t *testing.T) {
	var m memoTable
	m.begin()
	for i := uint64(0); i < 500; i++ {
		m.put(i, int32(i))
	}
	m.begin()
	for i := uint64(0); i < 500; i++ {
		if v, ok := m.get(i); ok {
			t.Fatalf("stale entry leaked across begin(): key %d → %d", i, v)
		}
	}
	// Entries written after the clear are visible and independent.
	m.put(3, -1)
	if v, ok := m.get(3); !ok || v != -1 {
		t.Fatalf("fresh entry after clear: get(3) = %d, %v", v, ok)
	}
}

// TestMemoTableAgainstMap drives the table with a randomized workload
// across many generations and cross-checks every answer against a
// plain map rebuilt per generation. Keys are drawn from a small space
// so probe chains collide, generations interleave hot keys, and grow()
// fires mid-generation.
func TestMemoTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	var m memoTable
	for gen := 0; gen < 50; gen++ {
		m.begin()
		ref := make(map[uint64]int32)
		ops := 100 + rng.Intn(2000)
		for op := 0; op < ops; op++ {
			key := uint64(rng.Intn(700))
			if rng.Intn(2) == 0 {
				val := int32(rng.Intn(1 << 20))
				m.put(key, val)
				ref[key] = val
			} else {
				gv, gok := m.get(key)
				rv, rok := ref[key]
				if gok != rok || (gok && gv != rv) {
					t.Fatalf("gen %d op %d: get(%d) = (%d,%v), want (%d,%v)",
						gen, op, key, gv, gok, rv, rok)
				}
			}
		}
	}
}

// TestMemoTableGrowKeepsEntries forces growth past several doublings in
// one generation and verifies nothing is lost or corrupted.
func TestMemoTableGrowKeepsEntries(t *testing.T) {
	var m memoTable
	m.begin()
	const n = 10 * memoMinSize
	for i := uint64(0); i < n; i++ {
		m.put(i*0x10001, int32(i))
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.get(i * 0x10001); !ok || v != int32(i) {
			t.Fatalf("after growth: get(%d) = %d, %v; want %d, true", i*0x10001, v, ok, int32(i))
		}
	}
}

// TestMemoTableWrapHardClear drives the generation counter to the wrap
// point and checks the hard clear: entries stamped with old generation
// numbers must not alias entries of the restarted counter.
func TestMemoTableWrapHardClear(t *testing.T) {
	var m memoTable
	m.begin()
	m.put(1, 100)
	// Jump the counter to just before the wrap, simulating 2^32-2
	// intervening searches; the entry above carries gen 1.
	m.gen = ^uint32(0) - 1
	m.begin() // gen = max
	m.put(2, 200)
	m.begin() // wraps: hard clear, gen = 1 again — same stamp key 1 had
	if v, ok := m.get(1); ok {
		t.Fatalf("entry from the pre-wrap generation 1 aliased the post-wrap generation 1: %d", v)
	}
	if _, ok := m.get(2); ok {
		t.Fatal("entry from generation max survived the wrap clear")
	}
	m.put(3, 300)
	if v, ok := m.get(3); !ok || v != 300 {
		t.Fatalf("post-wrap put/get broken: %d, %v", v, ok)
	}
}

// TestScratchReuseNoStaleDerivations is the end-to-end guard the memo
// exists for: one Scratch reused across many different queries (and
// different searchers) must never let a previous query's cached
// derivations contaminate a later answer. Results are cross-checked
// against a fresh-scratch search and the brute-force S-tree.
func TestScratchReuseNoStaleDerivations(t *testing.T) {
	rng := rand.New(rand.NewSource(992))
	targets := [][]byte{
		randomRanks(rng, 2000),
		periodicRanks(rng, 2000, 7), // repetitive: heavy memo traffic
	}
	var searchers []*Searcher
	for _, tgt := range targets {
		s, err := NewSearcher(tgt, fmindex.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		searchers = append(searchers, s)
	}
	sc := NewScratch()
	for trial := 0; trial < 150; trial++ {
		si := trial % len(searchers)
		s, tgt := searchers[si], targets[si]
		m := 5 + rng.Intn(25)
		p := rng.Intn(len(tgt) - m)
		pat := append([]byte(nil), tgt[p:p+m]...)
		pat[rng.Intn(m)] = byte(1 + rng.Intn(4))
		k := rng.Intn(3)

		got, gotStats, err := s.FindScratch(sc, nil, pat, k, MethodMTree, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := find(s, pat, k, MethodSTree)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: reused scratch found %d matches, S-tree %d (stats %+v)",
				trial, len(got), len(want), gotStats)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d match %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func periodicRanks(rng *rand.Rand, n, period int) []byte {
	unit := randomRanks(rng, period)
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, unit...)
	}
	out = out[:n]
	// Sprinkle mutations so derivations hit the fallback paths too.
	for i := 0; i < n/50; i++ {
		out[rng.Intn(n)] = byte(1 + rng.Intn(4))
	}
	return out
}
