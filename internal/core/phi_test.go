package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/naive"
)

// naivePhi computes φ per its definition: the number of consecutive,
// disjoint substrings of pattern[i:] absent from the target, taking at
// each step the SHORTEST absent prefix (greedy), which is what the
// FM-based computation produces.
func naivePhi(text, pattern []byte) []int {
	m := len(pattern)
	phi := make([]int, m+1)
	for i := m - 1; i >= 0; i-- {
		// Find the smallest q >= i with pattern[i..q] absent.
		q := i
		for q < m && bytes.Contains(text, pattern[i:q+1]) {
			q++
		}
		if q >= m {
			phi[i] = 0
		} else {
			phi[i] = 1 + phi[q+1]
		}
	}
	return phi
}

// capPhi returns min(phi, k+1) without overflowing at k = math.MaxInt.
func capPhi(phi []int, k int) []int {
	out := slices.Clone(phi)
	for i, v := range out {
		if v > k {
			out[i] = k + 1
		}
	}
	return out
}

// phiKs are the budgets each pattern is checked at: the small ones cap
// φ, m and math.MaxInt leave it whole (the latter reaches the threshold
// loop through the public API).
func phiKs(m int) []int {
	ks := []int{0, 1, 2, 3, m, math.MaxInt}
	slices.Sort(ks)
	return slices.Compact(ks)
}

// longestStep is the length of the longest run of equal values in
// phi[:m]: the widest gap a threshold search had to gallop across.
func longestStep(phi []int) int {
	best, run := 0, 0
	for i := 0; i+1 < len(phi); i++ {
		if i > 0 && phi[i] == phi[i-1] {
			run++
		} else {
			run = 1
		}
		best = max(best, run)
	}
	return best
}

func TestComputePhiAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	// One Scratch for every call: a reused φ buffer must be fully
	// overwritten, whatever length and budget the previous call had.
	sc := NewScratch()
	widest := 0
	check := func(text, pattern []byte) {
		t.Helper()
		s, err := NewSearcher(text, fmindex.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := naivePhi(text, pattern)
		widest = max(widest, longestStep(want))
		prevSteps := 0
		for _, k := range phiKs(len(pattern)) {
			got, steps := s.computePhi(sc, pattern, k)
			if !slices.Equal(got, capPhi(want, k)) {
				t.Fatalf("k=%d: phi = %v, want %v (text=%v pattern=%v)",
					k, got, capPhi(want, k), text, pattern)
			}
			// A larger budget only adds thresholds to search for.
			if steps < prevSteps {
				t.Fatalf("k=%d: %d steps, fewer than %d at a smaller k", k, steps, prevSteps)
			}
			prevSteps = steps
		}
	}
	// Random texts: short patterns, and long ones whose flat stretches
	// of φ make the gallop cross several doublings.
	for trial := 0; trial < 60; trial++ {
		text := randomRanks(rng, 20+rng.Intn(600))
		for q := 0; q < 5; q++ {
			m := 1 + rng.Intn(25)
			if q >= 3 {
				m = 1 + rng.Intn(150)
			}
			var pattern []byte
			if rng.Intn(2) == 0 && len(text) > m {
				pattern = mutate(rng, text, rng.Intn(len(text)-m), m, 1+rng.Intn(6))
			} else {
				pattern = randomRanks(rng, m)
			}
			check(text, pattern)
		}
	}
	// Repetitive texts (period 1–8, sparsely mutated): long present
	// stretches and short absent ones, up to 150 bases.
	for trial := 0; trial < 48; trial++ {
		period := 1 + trial%8
		text := periodicRanks(rng, 100+rng.Intn(500), period)
		for q := 0; q < 4; q++ {
			m := 1 + rng.Intn(150)
			var pattern []byte
			switch q {
			case 0:
				pattern = periodicPattern(text[:period], m)
			case 1:
				if len(text) > m {
					pattern = mutate(rng, text, rng.Intn(len(text)-m), m, rng.Intn(7))
				} else {
					pattern = randomRanks(rng, m)
				}
			case 2:
				pattern = mutate(rng, periodicPattern(text[:period], m), 0, m, 1+rng.Intn(6))
			default:
				pattern = randomRanks(rng, m)
			}
			check(text, pattern)
		}
	}
	if widest < 64 {
		t.Fatalf("widest flat stretch of φ was %d; no case galloped across 6 doublings", widest)
	}
}

func TestPhiIsLowerBound(t *testing.T) {
	// φ[i] must never exceed the true minimal number of mismatches of any
	// alignment of pattern[i:] in the target — otherwise pruning with it
	// would drop real matches.
	rng := rand.New(rand.NewSource(82))
	sc := NewScratch()
	for trial := 0; trial < 40; trial++ {
		text := randomRanks(rng, 30+rng.Intn(200))
		s, _ := NewSearcher(text, fmindex.DefaultOptions())
		m := 3 + rng.Intn(15)
		if m > len(text) {
			m = len(text)
		}
		pattern := randomRanks(rng, m)
		for _, k := range phiKs(m) {
			phi, _ := s.computePhi(sc, pattern, k)
			for i := 0; i <= m; i++ {
				suffix := pattern[i:]
				if len(suffix) == 0 {
					if phi[i] != 0 {
						t.Fatalf("k=%d: phi[m] = %d", k, phi[i])
					}
					continue
				}
				best := len(suffix) + 1
				for p := 0; p+len(suffix) <= len(text); p++ {
					if d := naive.Hamming(text[p:p+len(suffix)], suffix, len(suffix)); d < best {
						best = d
					}
				}
				if len(text) >= len(suffix) && phi[i] > best {
					t.Fatalf("k=%d: phi[%d] = %d exceeds true minimum %d (suffix %v, text %v)",
						k, i, phi[i], best, suffix, text)
				}
			}
		}
	}
}

func TestPhiZeroForPlantedPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	text := randomRanks(rng, 1000)
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	pattern := text[200:240]
	for _, k := range phiKs(len(pattern)) {
		phi, _ := s.computePhi(NewScratch(), pattern, k)
		for i, v := range phi {
			if v != 0 {
				t.Fatalf("k=%d: phi[%d] = %d for an exactly-occurring pattern", k, i, v)
			}
		}
	}
}

func TestPhiPaperSemantics(t *testing.T) {
	// Paper example (§IV-A): s = acagaca, r = tcaca: φ(1) = 2 because both
	// "t" and "cac" are absent; φ(3) = 0 since every substring of "aca"
	// occurs. (1-based paper positions; 0-based here.) The thresholds are
	// T_1 = 2 ("aca" is the longest present suffix) and T_2 = 1 ("t" is
	// absent), so φ = [2,1,0,0,0,0]; k = 0 caps it at 1.
	text := mustRanks(t, "acagaca")
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	pattern := mustRanks(t, "tcaca")
	for _, tc := range []struct {
		k    int
		want []int
	}{
		{0, []int{1, 1, 0, 0, 0, 0}},
		{1, []int{2, 1, 0, 0, 0, 0}},
		{math.MaxInt, []int{2, 1, 0, 0, 0, 0}},
	} {
		phi, _ := s.computePhi(NewScratch(), pattern, tc.k)
		if !slices.Equal(phi, tc.want) {
			t.Errorf("k=%d: phi = %v, want %v", tc.k, phi, tc.want)
		}
	}
}

func mustRanks(t *testing.T, s string) []byte {
	t.Helper()
	out := make([]byte, len(s))
	for i := range s {
		switch s[i] {
		case 'a':
			out[i] = 1
		case 'c':
			out[i] = 2
		case 'g':
			out[i] = 3
		case 't':
			out[i] = 4
		default:
			t.Fatalf("bad char %q", s[i])
		}
	}
	return out
}

func TestPhiEmptyishInputs(t *testing.T) {
	text := []byte{1, 2, 3}
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	for _, k := range []int{0, 1, math.MaxInt} {
		phi, _ := s.computePhi(NewScratch(), []byte{4}, k)
		if !slices.Equal(phi, []int{1, 0}) {
			t.Fatalf("k=%d: phi for absent single char = %v", k, phi)
		}
	}
}
