package fmindex

import (
	"math/rand"
	"testing"
)

// matchLenGeneric is the reference Step loop MatchLen shortcuts.
func matchLenGeneric(idx *Index, p []byte) (int, int) {
	iv := idx.Full()
	steps := 0
	for q := 0; q < len(p); q++ {
		iv = idx.Step(p[q], iv)
		steps++
		if iv.Empty() {
			return q, steps
		}
	}
	return len(p), steps
}

// TestMatchLenMatchesStepLoop checks MatchLen and its two shortcuts
// (the first step from the C array, one-row intervals by a BWT compare)
// against the generic Step loop at several checkpoint spacings: same
// matched length AND same step count, on random and periodic texts,
// with query prefixes sampled from the text (long matches, exercising
// the singleton tail) and random (short matches).
func TestMatchLenMatchesStepLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	layouts := []Options{
		{OccRate: 1, SARate: 16},
		{OccRate: 4, SARate: 16},
		{OccRate: 32, SARate: 16},
		{OccRate: 64, SARate: 8},
		{OccRate: 48, SARate: 16},
	}
	for _, n := range []int{1, 3, 64, 500, 5000} {
		texts := [][]byte{randomRanksP(rng, n), periodicRanksP(n)}
		for _, text := range texts {
			for _, opts := range layouts {
				idx, err := Build(text, opts)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 40; trial++ {
					var p []byte
					if trial%2 == 0 && n > 1 {
						// Substring of the text, optionally with a mutated tail.
						start := rng.Intn(n)
						end := start + rng.Intn(n-start) + 1
						p = append([]byte(nil), text[start:end]...)
						if len(p) > 0 && trial%4 == 0 {
							p[len(p)-1] = byte(1 + rng.Intn(4))
						}
					} else {
						p = randomRanksP(rng, rng.Intn(30))
					}
					gm, gs := matchLenGeneric(idx, p)
					fm, fs := idx.MatchLen(p)
					if fm != gm || fs != gs {
						t.Fatalf("n=%d opts=%+v p=%v: MatchLen=(%d,%d), generic=(%d,%d)",
							n, opts, p, fm, fs, gm, gs)
					}
				}
			}
		}
	}
}

// periodicRanksP builds a period-3 text, which keeps intervals wide for
// long extensions (the non-singleton path).
func periodicRanksP(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(1 + i%3)
	}
	return out
}
