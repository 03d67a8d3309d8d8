package naive

import (
	"testing"

	"bwtmatch/internal/alphabet"
)

func TestHamming(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	b := []byte{1, 3, 3, 1}
	if got := Hamming(a, b, 4); got != 2 {
		t.Errorf("Hamming = %d, want 2", got)
	}
	if got := Hamming(a, b, 0); got != 1 {
		t.Errorf("Hamming with limit 0 = %d, want 1 (early exit)", got)
	}
	if got := Hamming(nil, nil, 0); got != 0 {
		t.Errorf("Hamming(empty) = %d", got)
	}
}

func TestFindPaperExample(t *testing.T) {
	// Paper §I: r = aaaaacaaac occurs in s = ccacacagaagcc at position 3
	// (1-based) with 4 mismatches.
	s, _ := alphabet.Encode([]byte("ccacacagaagcc"))
	r, _ := alphabet.Encode([]byte("aaaaacaaac"))
	got := Find(s, r, 4)
	found := false
	for _, p := range got {
		if p == 2 { // 0-based
			found = true
		}
	}
	if !found {
		t.Fatalf("Find = %v, want to include position 2", got)
	}
}

func TestFindEdges(t *testing.T) {
	s := []byte{1, 2, 3}
	if got := Find(s, nil, 1); got != nil {
		t.Errorf("empty pattern: %v", got)
	}
	if got := Find(s, []byte{1, 2, 3, 4}, 9); got != nil {
		t.Errorf("pattern longer than text: %v", got)
	}
	// k >= m: every position matches.
	if got := Find(s, []byte{4, 4}, 2); len(got) != 2 {
		t.Errorf("k>=m: %v, want 2 positions", got)
	}
}
