package core

import (
	"math/rand"
	"testing"

	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/naive"
)

// periodicPattern repeats unit to length m (self-similar under shift
// |unit|) — the regime in which BWT intervals recur in the S-tree and the
// M-tree derivation machinery actually fires.
func periodicPattern(unit []byte, m int) []byte {
	p := make([]byte, m)
	for i := range p {
		p[i] = unit[i%len(unit)]
	}
	return p
}

// tandemText embeds a long tandem array of unit inside random sequence.
func tandemText(rng *rand.Rand, unit []byte, copies, flank int) []byte {
	text := randomRanks(rng, flank)
	for i := 0; i < copies; i++ {
		text = append(text, unit...)
	}
	return append(text, randomRanks(rng, flank)...)
}

func TestPeriodicPatternsOnTandemText(t *testing.T) {
	// Periodic patterns over a tandem array are the adversarial case for
	// the derivation bookkeeping: intervals stay wide (hundreds of rows)
	// for the whole pattern length, yet exact interval repeats are broken
	// by the array boundary (each full-period extension loses exactly the
	// final copy), so the memo must stay correct while almost never
	// firing. See the reproduction finding in DESIGN.md §3.4.
	rng := rand.New(rand.NewSource(71))
	unit := []byte{1, 3, 2, 4, 1, 2}
	text := tandemText(rng, unit, 400, 500)
	s, err := NewSearcher(text, fmindex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pattern := periodicPattern(unit, 60)
	for k := 0; k <= 3; k++ {
		got, _, err := find(s, pattern, k, MethodMTree)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Find(text, pattern, k)
		matchesEqual(t, got, want, text, pattern, k)
		if len(want) < 300 {
			t.Fatalf("workload broken: only %d true matches", len(want))
		}
	}
}

func TestDerivationFiresInDenseRegion(t *testing.T) {
	// Exact interval repeats arise cross-branch in the dense shallow
	// region of larger searches; pin a configuration where they are known
	// to occur and check both that they fire and that results stay
	// correct against the φ-pruned baseline.
	g := repeatRichGenome(1<<16, 1001)
	s, err := NewSearcher(g, fmindex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	hits := 0
	for trial := 0; trial < 3; trial++ {
		pos := rng.Intn(len(g) - 60)
		pattern := mutate(rng, g, pos, 60, 2)
		a, astats, err := find(s, pattern, 8, MethodMTree)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := find(s, pattern, 8, MethodSTreePhi)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("A and baseline disagree: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("match %d differs: %v vs %v", i, a[i], b[i])
			}
		}
		hits += astats.MemoHits
	}
	if hits == 0 {
		t.Errorf("no memo hits in the dense-region configuration")
	}
}

// repeatRichGenome mirrors the bench corpus generator at small scale.
func repeatRichGenome(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	g := randomRanks(rng, n)
	unit := 300
	for covered := 0; covered < n*2/5; covered += unit {
		// Single family: copy one window across the genome with noise.
		src := 1000
		dst := rng.Intn(n - unit)
		for i := 0; i < unit; i++ {
			if rng.Intn(33) == 0 {
				g[dst+i] = byte(1 + rng.Intn(4))
			} else {
				g[dst+i] = g[src+i]
			}
		}
	}
	return g
}

func TestDerivationCorrectUnderBudgetUpgrades(t *testing.T) {
	// Mixed-period patterns at higher k exercise the rem > bRem fallback:
	// the same interval is reached first on a mismatch-heavy path (small
	// remaining budget) and later on a cleaner path (larger budget).
	rng := rand.New(rand.NewSource(72))
	unit := []byte{2, 2, 1, 4}
	text := tandemText(rng, unit, 300, 400)
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	for trial := 0; trial < 20; trial++ {
		pattern := periodicPattern(unit, 24+rng.Intn(24))
		for f := 0; f < rng.Intn(4); f++ {
			pattern[rng.Intn(len(pattern))] = byte(1 + rng.Intn(4))
		}
		k := 1 + rng.Intn(4)
		got, stats, err := find(s, pattern, k, MethodMTree)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Find(text, pattern, k)
		matchesEqual(t, got, want, text, pattern, k)
		_ = stats
	}
}

func TestDerivationAllPeriods(t *testing.T) {
	// Sweep unit lengths so run/branch/end derivation paths all trigger
	// at varied shift distances.
	rng := rand.New(rand.NewSource(73))
	for unitLen := 1; unitLen <= 8; unitLen++ {
		unit := randomRanks(rng, unitLen)
		text := tandemText(rng, unit, 600/unitLen, 200)
		s, _ := NewSearcher(text, fmindex.DefaultOptions())
		for _, k := range []int{0, 1, 2} {
			pattern := periodicPattern(unit, 20)
			got, _, err := find(s, pattern, k, MethodMTree)
			if err != nil {
				t.Fatal(err)
			}
			want := naive.Find(text, pattern, k)
			matchesEqual(t, got, want, text, pattern, k)
		}
	}
}

func TestNoPhiMatchesPhiResults(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	text := randomRanks(rng, 2000)
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	for trial := 0; trial < 30; trial++ {
		m := 5 + rng.Intn(30)
		pattern := mutate(rng, text, rng.Intn(len(text)-m), m, rng.Intn(3))
		k := rng.Intn(4)
		a, _, err := find(s, pattern, k, MethodMTree)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := find(s, pattern, k, MethodMTreeNoPhi)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("phi changed results: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("phi changed match %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

func TestStructuredRegionStats(t *testing.T) {
	// On a text dominated by one repeat family the structured region is
	// deep; the search must stay correct and populate the work counters.
	rng := rand.New(rand.NewSource(75))
	unit := randomRanks(rng, 5)
	text := tandemText(rng, unit, 500, 100)
	s, _ := NewSearcher(text, fmindex.DefaultOptions())

	periodic := periodicPattern(unit, 40)
	got, pstats, err := find(s, periodic, 2, MethodMTree)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Find(text, periodic, 2)
	matchesEqual(t, got, want, text, periodic, 2)
	if pstats.StepCalls == 0 || pstats.MTreeLeaves == 0 {
		t.Errorf("stats not populated: %+v", pstats)
	}
}
