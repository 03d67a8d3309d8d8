package bwtmatch

import (
	"math/rand"
	"testing"
)

// TestSearchMethodScratchZeroAlloc pins the allocation contract of the
// search primitive on every layout: once the Scratch and destination
// slice are warm, a SearchMethodScratch call performs zero heap
// allocations for every BWT-path method, whether the index is
// standalone, sharded (all shards or a subset) or a relative tenant.
// The pattern set deliberately mixes short patterns (wide intervals,
// the structured M-tree machinery with memo traffic) and longer ones
// (intervals below the structured threshold, the small-interval walk).
func TestSearchMethodScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	target := randomDNA(rng, 50000)
	var pats [][]byte
	for _, m := range []int{8, 12, 30, 80} {
		p := rng.Intn(len(target) - m)
		pat := append([]byte(nil), target[p:p+m]...)
		pat[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		pats = append(pats, pat)
	}
	layouts, _ := testLayouts(t, rng, target)
	for _, l := range layouts {
		for _, method := range bwtMethods {
			sc := NewScratch()
			dst := make([]Match, 0, 4096)
			// Warm up: grow every internal buffer (memo table, arenas,
			// locate buffer) to its steady-state size.
			for range 3 {
				for _, p := range pats {
					var err error
					dst, _, err = l.search(sc, dst[:0], p, 2, method, nil)
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				for _, p := range pats {
					dst, _, _ = l.search(sc, dst[:0], p, 2, method, nil)
				}
			})
			if allocs != 0 {
				t.Errorf("%s %v: AllocsPerRun = %v, want 0", l.name, method, allocs)
			}
		}
	}
}

// TestSearchMethodScratchMatchesSearchMethod cross-checks the scratch
// path against the allocating path on a shared workload, including
// reuse of one Scratch across many different queries (the pooled
// server pattern) so buffer-recycling bugs surface as wrong answers.
func TestSearchMethodScratchMatchesSearchMethod(t *testing.T) {
	rng := rand.New(rand.NewSource(412))
	target := randomDNA(rng, 8000)
	idx, err := New(target)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for trial := 0; trial < 200; trial++ {
		m := 6 + rng.Intn(40)
		p := rng.Intn(len(target) - m)
		pat := append([]byte(nil), target[p:p+m]...)
		for i := 0; i < 2; i++ {
			pat[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		}
		k := rng.Intn(4)
		method := []Method{AlgorithmA, AlgorithmANoPhi, BWTBaseline, STree}[trial%4]
		want, wantStats, err := SearchMethod(idx, pat, k, method)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := idx.SearchMethodScratch(sc, nil, pat, k, method, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v k=%d): %d vs %d matches", trial, method, k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%v k=%d): match %d: %+v vs %+v", trial, method, k, i, got[i], want[i])
			}
		}
		wantStats.LocateNS, gotStats.LocateNS = 0, 0
		if gotStats != wantStats {
			t.Fatalf("trial %d (%v k=%d): stats %+v vs %+v", trial, method, k, gotStats, wantStats)
		}
	}
}

// TestSearchMethodScratchAppends checks the destination-append
// contract: existing dst entries are preserved and new matches land
// after them.
func TestSearchMethodScratchAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(413))
	target := randomDNA(rng, 2000)
	idx, err := New(target)
	if err != nil {
		t.Fatal(err)
	}
	pat := append([]byte(nil), target[100:120]...)
	sentinel := Match{Pos: -7, Mismatches: 99}
	dst := []Match{sentinel}
	dst, _, err = idx.SearchMethodScratch(NewScratch(), dst, pat, 1, AlgorithmA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) < 2 || dst[0] != sentinel {
		t.Fatalf("dst = %+v: sentinel not preserved or no matches appended", dst)
	}
	for _, m := range dst[1:] {
		if m.Pos < 0 {
			t.Fatalf("appended match has invalid position: %+v", m)
		}
	}
}
