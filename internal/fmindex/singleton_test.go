package fmindex

import (
	"math/rand"
	"testing"

	"bwtmatch/internal/alphabet"
)

func TestStepSingletonAgainstStepAll(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	text := randomRanks(rng, 3000)
	idx, err := Build(text, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var kids [alphabet.Bases]Interval
	for row := int32(0); row <= int32(idx.N()); row++ {
		iv := Interval{row, row + 1}
		x, child, ok := idx.StepSingleton(iv)
		idx.StepAll(iv, &kids)
		nonEmpty := 0
		for y := byte(1); y <= alphabet.T; y++ {
			if !kids[y-1].Empty() {
				nonEmpty++
				if !ok {
					t.Fatalf("row %d: StepSingleton said dead, StepAll has child %d", row, y)
				}
				if x != y || child != kids[y-1] {
					t.Fatalf("row %d: StepSingleton (%d,%v) != StepAll (%d,%v)",
						row, x, child, y, kids[y-1])
				}
			}
		}
		if nonEmpty == 0 && ok {
			t.Fatalf("row %d: StepSingleton found child where StepAll has none", row)
		}
		if nonEmpty > 1 {
			t.Fatalf("row %d: singleton interval with %d continuations", row, nonEmpty)
		}
		checkStepSingletonIf(t, idx, row, x, child, ok)
	}
}

// checkStepSingletonIf checks StepSingletonIf on row for every base
// and for AnyBase against StepSingleton's answer (x, child, ok): it
// reports the row's character, and the child exactly when that
// character is the wanted base — never at the sentinel row.
func checkStepSingletonIf(t *testing.T, idx *Index, row int32, x byte, child Interval, ok bool) {
	t.Helper()
	iv := Interval{row, row + 1}
	for want := byte(alphabet.A); want <= alphabet.T; want++ {
		gx, gc, gok := idx.StepSingletonIf(iv, want)
		if gx != x {
			t.Fatalf("row %d want %d: StepSingletonIf read %d, StepSingleton %d", row, want, gx, x)
		}
		if gok != (ok && x == want) {
			t.Fatalf("row %d (char %d) want %d: ok = %v", row, x, want, gok)
		}
		if gok && gc != child {
			t.Fatalf("row %d want %d: child %v, StepSingleton %v", row, want, gc, child)
		}
	}
	if gx, gc, gok := idx.StepSingletonIf(iv, AnyBase); gx != x || gc != child || gok != ok {
		t.Fatalf("row %d: StepSingletonIf(AnyBase) = (%d, %v, %v), StepSingleton (%d, %v, %v)",
			row, gx, gc, gok, x, child, ok)
	}
}

func TestStepSingletonChainRebuildsReversedText(t *testing.T) {
	text := mustEncode(t, "acagaca")
	idx, _ := Build(text, DefaultOptions())
	// Starting from the row of the full text's suffix (located via an
	// exact search of the whole text) and LF-stepping with StepSingleton
	// must spell the text right-to-left.
	iv := idx.Search(text)
	if iv.Len() != 1 {
		t.Fatalf("full-text interval %v", iv)
	}
	// Walk forward: prepending characters runs past the text start, so
	// instead check a mid suffix: interval of "aca" suffix occurrences.
	iv = idx.Search(mustEncode(t, "gaca"))
	if iv.Len() != 1 {
		t.Fatalf("gaca interval %v", iv)
	}
	x, _, ok := idx.StepSingleton(iv)
	if !ok || x != alphabet.A {
		t.Fatalf("StepSingleton(gaca) = %d,%v; want preceding 'a'", x, ok)
	}
}
