package core

import (
	"math/rand"
	"reflect"
	"testing"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/fmindex"
)

// bruteSTree enumerates the k-mismatch S-tree of pattern directly on the
// text, without an index: a node is a string w occurring in text with
// Hamming(w, pattern[:len(w)]) <= k, held as the start positions of its
// occurrences. It returns the expanded nodes (depth < m) and the
// maximal-path terminals (nodes at depth m, plus expanded nodes with no
// surviving child).
func bruteSTree(text, pattern []byte, k int) (nodes, leaves int) {
	var walk func(starts []int, j, e int)
	walk = func(starts []int, j, e int) {
		if j == len(pattern) {
			leaves++
			return
		}
		nodes++
		var kids [alphabet.Bases][]int
		for _, p := range starts {
			if p+j < len(text) {
				x := text[p+j]
				kids[x-1] = append(kids[x-1], p)
			}
		}
		progressed := false
		for i, kid := range kids {
			cost := 0
			if byte(i+1) != pattern[j] {
				cost = 1
			}
			if len(kid) == 0 || e+cost > k {
				continue
			}
			progressed = true
			walk(kid, j+1, e+cost)
		}
		if !progressed {
			leaves++
		}
	}
	root := make([]int, len(text))
	for i := range root {
		root[i] = i
	}
	walk(root, 0, 0)
	return nodes, leaves
}

// ablationTexts returns a random text, a noisy repeat and a repeat-rich
// genome: the last two keep intervals wide enough for the memo to fire.
func ablationTexts(rng *rand.Rand) [][]byte {
	unit := randomRanks(rng, 7)
	var rep []byte
	for len(rep) < 3000 {
		rep = append(rep, unit...)
		if rng.Intn(3) == 0 {
			rep = append(rep, byte(1+rng.Intn(4)))
		}
	}
	return [][]byte{randomRanks(rng, 400), rep, repeatRichGenome(1<<14, 77)}
}

// TestMethodSwitchesAblation pins the 2×2 the four BWT-path methods
// form over one traversal: the φ bound and the M-tree memo are its only
// switches. The memo-off methods never derive; turning φ on never adds
// rank work; and with both off the walk is exactly the S-tree of [34],
// node for node and terminal for terminal.
func TestMethodSwitchesAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for ti, text := range ablationTexts(rng) {
		s, err := NewSearcher(text, fmindex.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			m := 4 + rng.Intn(30)
			k := rng.Intn(5)
			var pattern []byte
			if rng.Intn(3) == 0 {
				pattern = randomRanks(rng, m)
			} else {
				pattern = mutate(rng, text, rng.Intn(len(text)-m), m, rng.Intn(k+2))
			}
			var st [4]Stats
			for _, method := range []Method{MethodSTree, MethodSTreePhi, MethodMTree, MethodMTreeNoPhi} {
				_, st[method], err = find(s, pattern, k, method)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, method := range []Method{MethodSTree, MethodSTreePhi} {
				if c := st[method]; c.MemoHits != 0 || c.DerivedLeaves != 0 || c.LiveFallbacks != 0 {
					t.Errorf("text %d q %d: %v derived with the memo off: %+v", ti, q, method, c)
				}
			}
			if st[MethodSTreePhi].StepCalls > st[MethodSTree].StepCalls {
				t.Errorf("text %d q %d: φ raised memo-off steps %d -> %d",
					ti, q, st[MethodSTree].StepCalls, st[MethodSTreePhi].StepCalls)
			}
			if st[MethodMTree].StepCalls > st[MethodMTreeNoPhi].StepCalls {
				t.Errorf("text %d q %d: φ raised memo-on steps %d -> %d",
					ti, q, st[MethodMTreeNoPhi].StepCalls, st[MethodMTree].StepCalls)
			}
			nodes, leaves := bruteSTree(text, pattern, k)
			if c := st[MethodSTree]; c.StepCalls != nodes || c.MTreeLeaves != leaves {
				t.Errorf("text %d q %d: S-tree steps/leaves %d/%d, brute-force enumeration %d/%d",
					ti, q, c.StepCalls, c.MTreeLeaves, nodes, leaves)
			}
		}
	}
}

// TestMemoOffLeavesMemoUntouched checks that the memo-off methods never
// begin a memo generation nor build the pattern's mismatch source.
func TestMemoOffLeavesMemoUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	text := repeatRichGenome(1<<14, 78)
	s, err := NewSearcher(text, fmindex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pattern := mutate(rng, text, 1000, 40, 2)
	sc := NewScratch()
	for _, method := range []Method{MethodSTree, MethodSTreePhi} {
		if _, _, err := s.FindScratch(sc, nil, pattern, 3, method, nil); err != nil {
			t.Fatal(err)
		}
	}
	if sc.memo.slots != nil || sc.memo.gen != 0 || !reflect.ValueOf(sc.src).IsZero() {
		t.Fatalf("memo-off search touched the memo (gen %d) or the mismatch source", sc.memo.gen)
	}
	if _, _, err := s.FindScratch(sc, nil, pattern, 3, MethodMTree, nil); err != nil {
		t.Fatal(err)
	}
	gen := sc.memo.gen
	if _, _, err := s.FindScratch(sc, nil, pattern, 3, MethodSTreePhi, nil); err != nil {
		t.Fatal(err)
	}
	if sc.memo.gen != gen {
		t.Fatalf("memo-off search began a memo generation: %d -> %d", gen, sc.memo.gen)
	}
}
