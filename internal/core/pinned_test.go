package core

import (
	"math/rand"
	"slices"
	"testing"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/fmindex"
)

// pinnedStats is Stats without LocateNS, in field order: Nodes,
// StepCalls, PhiSteps, MTreeLeaves, Occurrences, MemoHits,
// DerivedLeaves, LiveFallbacks.
type pinnedStats [8]int

func pin(s Stats) pinnedStats {
	return pinnedStats{s.Nodes, s.StepCalls, s.PhiSteps, s.MTreeLeaves,
		s.Occurrences, s.MemoHits, s.DerivedLeaves, s.LiveFallbacks}
}

// pinnedCase is one query of TestWalkCountersPinned: the pattern drawn
// from seed against text pinnedTexts()[text], and the counters each
// BWT-path method must report for it, indexed by Method.
type pinnedCase struct {
	text int
	seed int64
	m, k int
	want [4]pinnedStats
}

// pinnedTexts returns the repeat-rich genome, whose repeat family has
// enough copies for intervals of structuredMin rows deep into a
// pattern, and a random text of half its length.
func pinnedTexts() [][]byte {
	return [][]byte{
		repeatRichGenome(1<<16, 91),
		randomRanks(rand.New(rand.NewSource(92)), 1<<15),
	}
}

// pinnedPattern draws a case's pattern: a window of the text with up
// to k+1 substitutions, every fourth seed from inside the genome's
// repeat unit (text[1000:1300], repeatRichGenome's source window), or
// every fourth seed a random pattern.
func pinnedPattern(text []byte, seed int64, m, k int) []byte {
	rng := rand.New(rand.NewSource(seed))
	switch seed % 4 {
	case 0:
		return randomRanks(rng, m)
	case 1:
		return mutate(rng, text, 1000+rng.Intn(300-m), m, rng.Intn(k+2))
	}
	return mutate(rng, text, rng.Intn(len(text)-m), m, rng.Intn(k+2))
}

// pinnedCases were recorded from a walk that expanded all four
// characters even on paths with no mismatch left. Stepping only the
// pattern's character there must leave every counter unchanged: Table
// 2's n′, kmbench's step_calls and perfbench's core.* counts rest on
// them. The A() and A()-nophi MTreeLeaves were re-recorded once, when
// exploreFresh and derive began counting the terminals smallWalk and
// exactWalk count (DESIGN.md §3.4).
var pinnedCases = []pinnedCase{
	{0, 1000, 75, 0, [4]pinnedStats{
		{8, 8, 0, 1, 0, 0, 0, 0},
		{0, 0, 28, 0, 0, 0, 0, 0},
		{0, 0, 28, 0, 0, 0, 0, 0},
		{8, 8, 0, 1, 0, 0, 0, 0},
	}},
	{1, 1001, 33, 0, [4]pinnedStats{
		{13, 13, 0, 1, 0, 0, 0, 0},
		{0, 0, 88, 0, 0, 0, 0, 0},
		{0, 0, 88, 0, 0, 0, 0, 0},
		{13, 13, 0, 1, 0, 0, 0, 0},
	}},
	{0, 1002, 20, 1, [4]pinnedStats{
		{133, 133, 0, 22, 2, 0, 0, 0},
		{44, 44, 74, 22, 2, 0, 0, 0},
		{44, 44, 74, 22, 2, 0, 0, 0},
		{133, 133, 0, 22, 2, 0, 0, 0},
	}},
	{1, 1003, 93, 1, [4]pinnedStats{
		{187, 187, 0, 24, 1, 0, 0, 0},
		{93, 93, 309, 24, 1, 0, 0, 0},
		{93, 93, 309, 24, 1, 0, 0, 0},
		{187, 187, 0, 24, 1, 0, 0, 0},
	}},
	{0, 1004, 38, 2, [4]pinnedStats{
		{788, 788, 0, 229, 0, 0, 0, 0},
		{0, 0, 126, 0, 0, 0, 0, 0},
		{0, 0, 126, 0, 0, 0, 0, 0},
		{788, 788, 0, 229, 0, 0, 0, 0},
	}},
	{1, 1005, 45, 2, [4]pinnedStats{
		{776, 776, 0, 221, 1, 0, 0, 0},
		{776, 776, 108, 221, 1, 0, 0, 0},
		{776, 776, 108, 221, 1, 0, 0, 0},
		{776, 776, 0, 221, 1, 0, 0, 0},
	}},
	{0, 1006, 26, 3, [4]pinnedStats{
		{4066, 4066, 0, 1429, 1, 0, 0, 0},
		{851, 851, 87, 1429, 1, 0, 0, 0},
		{851, 851, 87, 1429, 1, 0, 0, 0},
		{4066, 4066, 0, 1429, 1, 0, 0, 0},
	}},
	{1, 1007, 91, 3, [4]pinnedStats{
		{3568, 3568, 0, 1252, 1, 0, 0, 0},
		{3568, 3568, 218, 1252, 1, 0, 0, 0},
		{3568, 3568, 218, 1252, 1, 0, 0, 0},
		{3568, 3568, 0, 1252, 1, 0, 0, 0},
	}},
	{0, 1008, 32, 4, [4]pinnedStats{
		{14218, 14218, 0, 5399, 0, 0, 0, 0},
		{174, 174, 120, 248, 0, 0, 0, 0},
		{174, 174, 120, 248, 0, 0, 0, 0},
		{14218, 14218, 0, 5399, 0, 0, 0, 0},
	}},
	{1, 1009, 30, 4, [4]pinnedStats{
		{11753, 11753, 0, 4483, 1, 0, 0, 0},
		{11753, 11753, 61, 4483, 1, 0, 0, 0},
		{11753, 11753, 61, 4483, 1, 0, 0, 0},
		{11753, 11753, 0, 4483, 1, 0, 0, 0},
	}},
	{0, 1010, 20, 5, [4]pinnedStats{
		{37721, 37721, 0, 14401, 1, 0, 0, 0},
		{14704, 14704, 99, 14401, 1, 0, 0, 0},
		{14704, 14704, 99, 14401, 1, 0, 0, 0},
		{37721, 37721, 0, 14401, 1, 0, 0, 0},
	}},
	{1, 1011, 21, 5, [4]pinnedStats{
		{30270, 30270, 0, 11467, 1, 0, 0, 0},
		{30270, 30270, 52, 11467, 1, 0, 0, 0},
		{30270, 30270, 52, 11467, 1, 0, 0, 0},
		{30270, 30270, 0, 11467, 1, 0, 0, 0},
	}},
	{0, 1012, 41, 0, [4]pinnedStats{
		{9, 9, 0, 1, 0, 0, 0, 0},
		{0, 0, 28, 0, 0, 0, 0, 0},
		{0, 0, 28, 0, 0, 0, 0, 0},
		{9, 9, 0, 1, 0, 0, 0, 0},
	}},
	{1, 1013, 89, 0, [4]pinnedStats{
		{89, 89, 0, 1, 1, 0, 0, 0},
		{89, 89, 216, 1, 1, 0, 0, 0},
		{89, 89, 216, 1, 1, 0, 0, 0},
		{89, 89, 0, 1, 1, 0, 0, 0},
	}},
	{0, 1014, 96, 1, [4]pinnedStats{
		{1541, 1541, 0, 68, 1, 0, 0, 0},
		{1541, 1541, 223, 68, 1, 0, 0, 0},
		{1541, 1541, 223, 68, 1, 0, 0, 0},
		{1541, 1541, 0, 68, 1, 0, 0, 0},
	}},
	{1, 1015, 43, 1, [4]pinnedStats{
		{129, 129, 0, 23, 1, 0, 0, 0},
		{129, 129, 106, 23, 1, 0, 0, 0},
		{129, 129, 106, 23, 1, 0, 0, 0},
		{129, 129, 0, 23, 1, 0, 0, 0},
	}},
	{0, 1016, 28, 2, [4]pinnedStats{
		{840, 840, 0, 245, 0, 0, 0, 0},
		{0, 0, 84, 0, 0, 0, 0, 0},
		{0, 0, 84, 0, 0, 0, 0, 0},
		{840, 840, 0, 245, 0, 0, 0, 0},
	}},
	{1, 1017, 60, 2, [4]pinnedStats{
		{804, 804, 0, 218, 1, 0, 0, 0},
		{804, 804, 123, 218, 1, 0, 0, 0},
		{804, 804, 123, 218, 1, 0, 0, 0},
		{804, 804, 0, 218, 1, 0, 0, 0},
	}},
	{0, 1018, 20, 3, [4]pinnedStats{
		{4098, 4098, 0, 1413, 1, 0, 0, 0},
		{854, 854, 75, 1413, 1, 0, 0, 0},
		{854, 854, 75, 1413, 1, 0, 0, 0},
		{4098, 4098, 0, 1413, 1, 0, 0, 0},
	}},
	{1, 1019, 68, 3, [4]pinnedStats{
		{3607, 3607, 0, 1248, 1, 0, 0, 0},
		{3607, 3607, 195, 1248, 1, 0, 0, 0},
		{3607, 3607, 195, 1248, 1, 0, 0, 0},
		{3607, 3607, 0, 1248, 1, 0, 0, 0},
	}},
	{0, 1020, 38, 4, [4]pinnedStats{
		{14238, 14238, 0, 5389, 0, 0, 0, 0},
		{119, 119, 153, 236, 0, 0, 0, 0},
		{119, 119, 153, 236, 0, 0, 0, 0},
		{14238, 14238, 0, 5389, 0, 0, 0, 0},
	}},
	{1, 1021, 76, 4, [4]pinnedStats{
		{12007, 12007, 0, 4615, 1, 0, 0, 0},
		{3598, 3598, 270, 4615, 1, 0, 0, 0},
		{3598, 3598, 270, 4615, 1, 0, 0, 0},
		{12007, 12007, 0, 4615, 1, 0, 0, 0},
	}},
	{0, 1022, 80, 5, [4]pinnedStats{
		{40383, 40383, 0, 14375, 61, 0, 0, 0},
		{40383, 40383, 207, 14375, 61, 0, 0, 0},
		{40383, 40383, 207, 14375, 61, 1, 0, 1},
		{40383, 40383, 0, 14375, 61, 1, 0, 1},
	}},
	{1, 1023, 55, 5, [4]pinnedStats{
		{30478, 30478, 0, 11535, 1, 0, 0, 0},
		{12021, 12021, 158, 11535, 1, 0, 0, 0},
		{12021, 12021, 158, 11535, 1, 0, 0, 0},
		{30478, 30478, 0, 11535, 1, 0, 0, 0},
	}},
	{0, 1024, 31, 0, [4]pinnedStats{
		{8, 8, 0, 1, 0, 0, 0, 0},
		{0, 0, 28, 0, 0, 0, 0, 0},
		{0, 0, 28, 0, 0, 0, 0, 0},
		{8, 8, 0, 1, 0, 0, 0, 0},
	}},
	{1, 1025, 42, 0, [4]pinnedStats{
		{42, 42, 0, 1, 1, 0, 0, 0},
		{42, 42, 105, 1, 1, 0, 0, 0},
		{42, 42, 105, 1, 1, 0, 0, 0},
		{42, 42, 0, 1, 1, 0, 0, 0},
	}},
	{0, 1026, 65, 1, [4]pinnedStats{
		{140, 140, 0, 26, 0, 0, 0, 0},
		{0, 0, 234, 0, 0, 0, 0, 0},
		{0, 0, 234, 0, 0, 0, 0, 0},
		{140, 140, 0, 26, 0, 0, 0, 0},
	}},
	{1, 1027, 37, 1, [4]pinnedStats{
		{131, 131, 0, 22, 1, 0, 0, 0},
		{131, 131, 100, 22, 1, 0, 0, 0},
		{131, 131, 100, 22, 1, 0, 0, 0},
		{131, 131, 0, 22, 1, 0, 0, 0},
	}},
	{0, 1028, 63, 2, [4]pinnedStats{
		{799, 799, 0, 227, 0, 0, 0, 0},
		{0, 0, 131, 0, 0, 0, 0, 0},
		{0, 0, 131, 0, 0, 0, 0, 0},
		{799, 799, 0, 227, 0, 0, 0, 0},
	}},
	{1, 1029, 39, 2, [4]pinnedStats{
		{760, 760, 0, 221, 1, 0, 0, 0},
		{39, 39, 138, 25, 1, 0, 0, 0},
		{39, 39, 138, 25, 1, 0, 0, 0},
		{760, 760, 0, 221, 1, 0, 0, 0},
	}},
	{0, 1030, 62, 3, [4]pinnedStats{
		{4094, 4094, 0, 1400, 1, 0, 0, 0},
		{4094, 4094, 125, 1400, 1, 0, 0, 0},
		{4094, 4094, 125, 1400, 1, 0, 0, 0},
		{4094, 4094, 0, 1400, 1, 0, 0, 0},
	}},
	{1, 1031, 34, 3, [4]pinnedStats{
		{3521, 3521, 0, 1240, 1, 0, 0, 0},
		{3521, 3521, 97, 1240, 1, 0, 0, 0},
		{3521, 3521, 97, 1240, 1, 0, 0, 0},
		{3521, 3521, 0, 1240, 1, 0, 0, 0},
	}},
	{0, 1032, 58, 4, [4]pinnedStats{
		{14260, 14260, 0, 5382, 0, 0, 0, 0},
		{0, 0, 189, 0, 0, 0, 0, 0},
		{0, 0, 189, 0, 0, 0, 0, 0},
		{14260, 14260, 0, 5382, 0, 1, 0, 1},
	}},
	{1, 1033, 60, 4, [4]pinnedStats{
		{12120, 12120, 0, 4605, 1, 0, 0, 0},
		{12120, 12120, 123, 4605, 1, 0, 0, 0},
		{12120, 12120, 123, 4605, 1, 0, 0, 0},
		{12120, 12120, 0, 4605, 1, 0, 0, 0},
	}},
	{0, 1034, 77, 5, [4]pinnedStats{
		{37953, 37953, 0, 14407, 1, 0, 0, 0},
		{173, 173, 320, 239, 1, 0, 0, 0},
		{173, 173, 320, 239, 1, 0, 0, 0},
		{37953, 37953, 0, 14407, 1, 0, 0, 0},
	}},
	{1, 1035, 50, 5, [4]pinnedStats{
		{30282, 30282, 0, 11550, 1, 0, 0, 0},
		{6275, 6275, 222, 4845, 1, 0, 0, 0},
		{6275, 6275, 222, 4845, 1, 0, 0, 0},
		{30282, 30282, 0, 11550, 1, 0, 0, 0},
	}},
	{0, 1036, 96, 0, [4]pinnedStats{
		{8, 8, 0, 1, 0, 0, 0, 0},
		{0, 0, 51, 0, 0, 0, 0, 0},
		{0, 0, 51, 0, 0, 0, 0, 0},
		{8, 8, 0, 1, 0, 0, 0, 0},
	}},
	{1, 1037, 80, 0, [4]pinnedStats{
		{73, 73, 0, 1, 0, 0, 0, 0},
		{0, 0, 28, 0, 0, 0, 0, 0},
		{0, 0, 28, 0, 0, 0, 0, 0},
		{73, 73, 0, 1, 0, 0, 0, 0},
	}},
	{0, 1038, 53, 1, [4]pinnedStats{
		{918, 918, 0, 57, 20, 0, 0, 0},
		{918, 918, 116, 57, 20, 0, 0, 0},
		{918, 918, 116, 57, 20, 0, 0, 0},
		{918, 918, 0, 57, 20, 0, 0, 0},
	}},
	{1, 1039, 31, 1, [4]pinnedStats{
		{126, 126, 0, 24, 0, 0, 0, 0},
		{0, 0, 96, 0, 0, 0, 0, 0},
		{0, 0, 96, 0, 0, 0, 0, 0},
		{126, 126, 0, 24, 0, 0, 0, 0},
	}},
}

// TestWalkCountersPinned replays pinnedCases on a standalone index and
// on a relative tenant whose text equals its base, and requires every
// work counter of every method to match the recorded value. It pins
// the φ-on and memo-on counts that TestMethodSwitchesAblation's brute
// force cannot reach.
func TestWalkCountersPinned(t *testing.T) {
	texts := pinnedTexts()
	for ti, text := range texts {
		rev := alphabet.Reverse(slices.Clone(text))
		base, err := fmindex.Build(rev, fmindex.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		tenant, err := fmindex.Build(rev, fmindex.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rel, err := fmindex.MakeRelative(base, tenant)
		if err != nil {
			t.Fatal(err)
		}
		layouts := []struct {
			name string
			s    *Searcher
		}{
			{"standalone", NewSearcherFromIndex(base, len(text))},
			{"relative", NewSearcherFromIndex(rel, len(text))},
		}
		sc := NewScratch()
		for ci, c := range pinnedCases {
			if c.text != ti {
				continue
			}
			pattern := pinnedPattern(text, c.seed, c.m, c.k)
			for _, l := range layouts {
				var got [4]pinnedStats
				for _, method := range []Method{MethodSTree, MethodSTreePhi, MethodMTree, MethodMTreeNoPhi} {
					_, st, err := l.s.FindScratch(sc, nil, pattern, c.k, method, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got[method] = pin(st); got[method] != c.want[method] {
						t.Errorf("case %d (text %d seed %d m %d k %d) %s %v:\n got %v\nwant %v "+
							"(Nodes, StepCalls, PhiSteps, MTreeLeaves, Occurrences, MemoHits, DerivedLeaves, LiveFallbacks)",
							ci, c.text, c.seed, c.m, c.k, l.name, method, got[method], c.want[method])
					}
				}
				// Without a memo hit, Algorithm A walks the tree its
				// memo-free twin walks and must count it the same way,
				// n′ (MTreeLeaves) included.
				for _, pair := range [][2]Method{{MethodMTree, MethodSTreePhi}, {MethodMTreeNoPhi, MethodSTree}} {
					if a, b := got[pair[0]], got[pair[1]]; a[5] == 0 && a != b {
						t.Errorf("case %d (text %d seed %d) %s: %v %v without a memo hit, %v %v",
							ci, c.text, c.seed, l.name, pair[0], a, pair[1], b)
					}
				}
			}
		}
	}
}
