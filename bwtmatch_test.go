package bwtmatch

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/dna"
	"bwtmatch/internal/naive"
)

var allMethods = []Method{AlgorithmA, BWTBaseline, STree, AlgorithmANoPhi, Amir, Cole, Online, Seed}

func randomDNA(rng *rand.Rand, n int) []byte {
	const bases = "acgt"
	b := make([]byte, n)
	for i := range b {
		b[i] = bases[rng.Intn(4)]
	}
	return b
}

func TestQuickstartExample(t *testing.T) {
	idx, err := New([]byte("ccacacagaagcc"))
	if err != nil {
		t.Fatal(err)
	}
	matches, err := Search(idx, []byte("aaaaacaaac"), 4)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.Pos == 2 && m.Mismatches == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("paper intro occurrence missing: %v", matches)
	}
}

func TestAllMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 15; trial++ {
		target := randomDNA(rng, 200+rng.Intn(600))
		idx, err := New(target)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 5; q++ {
			m := 4 + rng.Intn(25)
			k := rng.Intn(4)
			var pattern []byte
			if rng.Intn(2) == 0 {
				p := rng.Intn(len(target) - m)
				pattern = append([]byte(nil), target[p:p+m]...)
				for f := 0; f < k; f++ {
					pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
				}
			} else {
				pattern = randomDNA(rng, m)
			}
			var ref []Match
			for mi, method := range allMethods {
				got, _, err := SearchMethod(idx, pattern, k, method)
				if err != nil {
					t.Fatalf("%v: %v", method, err)
				}
				if mi == 0 {
					ref = got
					continue
				}
				if len(got) != len(ref) {
					t.Fatalf("%v found %d, AlgorithmA found %d (pattern %s, k=%d)",
						method, len(got), len(ref), pattern, k)
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("%v disagrees at %d: %v vs %v", method, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

func TestSearchAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	target := randomDNA(rng, 1000)
	ranks, _ := alphabet.Encode(target)
	idx, _ := New(target)
	for q := 0; q < 30; q++ {
		pattern := randomDNA(rng, 5+rng.Intn(15))
		pr, _ := alphabet.Encode(pattern)
		k := rng.Intn(3)
		got, err := Search(idx, pattern, k)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Find(ranks, pr, k)
		if len(got) != len(want) {
			t.Fatalf("got %d, want %d", len(got), len(want))
		}
		for i := range got {
			if int32(got[i].Pos) != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty target accepted")
	}
	if _, err := New([]byte("acgN")); err == nil {
		t.Error("dirty target accepted")
	}
	idx, _ := New([]byte("acgtacgt"))
	if _, err := Search(idx, []byte("aNg"), 1); err == nil {
		t.Error("dirty pattern accepted")
	}
	if _, err := Search(idx, nil, 1); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := Search(idx, []byte("acg"), -1); err == nil {
		t.Error("negative k accepted")
	}
	if _, _, err := SearchMethod(idx, []byte("acg"), 1, Method(77)); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestMTreeLeavesValidation checks that the n′ entry point rejects the
// queries Search rejects, with the same ErrInput.
func TestMTreeLeavesValidation(t *testing.T) {
	idx, _ := New([]byte("acgtacgt"))
	for _, c := range []struct {
		name    string
		pattern []byte
		k       int
	}{
		{"dirty pattern", []byte("aNg"), 1},
		{"empty pattern", nil, 1},
		{"negative k", []byte("acg"), -1},
	} {
		_, searchErr := Search(idx, c.pattern, c.k)
		n, err := idx.MTreeLeaves(c.pattern, c.k)
		if !errors.Is(searchErr, ErrInput) || !errors.Is(err, ErrInput) {
			t.Errorf("%s: MTreeLeaves = %d, %v; Search error %v; want ErrInput from both", c.name, n, err, searchErr)
		}
	}
	if n, err := idx.MTreeLeaves([]byte("acg"), 1); err != nil || n == 0 {
		t.Errorf("valid query: MTreeLeaves = %d, %v", n, err)
	}
}

func TestSanitize(t *testing.T) {
	clean, n := Sanitize([]byte("acGTNx"))
	if !bytes.Equal(clean, []byte("acgtaa")) || n != 2 {
		t.Errorf("Sanitize = %q, %d", clean, n)
	}
}

func TestCount(t *testing.T) {
	idx, _ := New([]byte("acagacacaga"))
	ms, err := Search(idx, []byte("aca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Errorf("%d matches, want 3", len(ms))
	}
}

func TestMTreeLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	target := randomDNA(rng, 5000)
	idx, _ := New(target)
	// A planted window (0 mismatches) always has at least one leaf; a
	// fully random 40-mer would be φ-pruned to zero on a target this
	// small.
	n, err := idx.MTreeLeaves(target[1000:1040], 3)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("MTreeLeaves = 0")
	}
	if _, err := idx.MTreeLeaves([]byte("aNg"), 1); err == nil {
		t.Error("dirty pattern accepted")
	}
}

func TestOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	target := randomDNA(rng, 4000)
	small, _ := New(target, WithOccRate(64), WithSARate(64))
	big, _ := New(target, WithOccRate(1), WithSARate(1))
	if small.SizeBytes() >= big.SizeBytes() {
		t.Errorf("sparse index not smaller: %d vs %d", small.SizeBytes(), big.SizeBytes())
	}
	pattern := randomDNA(rng, 25)
	a, _ := Search(small, pattern, 2)
	b, _ := Search(big, pattern, 2)
	if len(a) != len(b) {
		t.Error("options changed results")
	}
	if small.Len() != len(target) {
		t.Errorf("Len = %d", small.Len())
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		AlgorithmA: "A()", BWTBaseline: "BWT", STree: "S-tree",
		AlgorithmANoPhi: "A()-nophi", Amir: "Amir", Cole: "Cole", Online: "Online", Seed: "Seed",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if Method(99).String() != "Method(99)" {
		t.Error("unknown method string")
	}
}

func TestEndToEndReadMapping(t *testing.T) {
	// Integration: simulate a genome and reads, map them back, verify the
	// true origin is always recovered when errors <= k.
	genome, err := dna.Generate(dna.GenomeConfig{Length: 30000, Seed: 11, RepeatFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(alphabet.Decode(genome))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := dna.Simulate(genome, dna.ReadConfig{Length: 60, Count: 40, ErrorRate: 0.03, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	for _, r := range reads {
		if r.Errors > k {
			continue
		}
		matches, err := Search(idx, alphabet.Decode(r.Seq), k)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range matches {
			if m.Pos == int(r.Pos) {
				if m.Mismatches != r.Errors {
					t.Fatalf("read at %d: reported %d mismatches, simulated %d",
						r.Pos, m.Mismatches, r.Errors)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("read from %d (errors %d) not recovered", r.Pos, r.Errors)
		}
	}
}

func TestSearchEdits(t *testing.T) {
	idx, err := New([]byte("acgtacgtacgt"))
	if err != nil {
		t.Fatal(err)
	}
	// "acta" is within 1 edit of "acgta" (deletion of g).
	ms, err := idx.SearchEdits([]byte("acta"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no edit matches")
	}
	found := false
	for _, m := range ms {
		if m.End == 5 && m.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected occurrence ending at 5 with distance 1: %v", ms)
	}
	if _, err := idx.SearchEdits([]byte("aNg"), 1); err == nil {
		t.Error("dirty pattern accepted")
	}
	if _, err := idx.SearchEdits(nil, 1); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestMEMs(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	target := randomDNA(rng, 2000)
	idx, _ := New(target)
	// A read copied from the target with one mutation splits into (at
	// most) two MEMs around the mutated base.
	p := 700
	read := append([]byte(nil), target[p:p+60]...)
	read[30] = "acgt"[("acgt"[rng.Intn(4)]+1)%4] // guaranteed-ish flip
	mems, err := idx.MEMs(read, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(mems) == 0 {
		t.Fatal("no MEMs found")
	}
	for _, m := range mems {
		if m.Len < 10 {
			t.Fatalf("MEM shorter than minLen: %+v", m)
		}
		if len(m.Positions) == 0 {
			t.Fatalf("MEM without positions: %+v", m)
		}
		for _, pos := range m.Positions {
			if !bytes.Equal(target[pos:pos+m.Len], read[m.Start:m.Start+m.Len]) {
				t.Fatalf("MEM position %d does not match", pos)
			}
		}
	}
	if _, err := idx.MEMs([]byte("aNg"), 5); err == nil {
		t.Error("dirty pattern accepted")
	}
	if _, err := idx.MEMs(nil, 5); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestSearchBest(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	target := randomDNA(rng, 3000)
	idx, _ := New(target)
	for trial := 0; trial < 20; trial++ {
		m := 20 + rng.Intn(20)
		p := rng.Intn(len(target) - m)
		pattern := append([]byte(nil), target[p:p+m]...)
		flips := rng.Intn(4)
		for f := 0; f < flips; f++ {
			pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		}
		best, matches, err := SearchBest(idx, pattern, 6)
		if err != nil {
			t.Fatal(err)
		}
		if best < 0 || best > flips {
			t.Fatalf("best = %d, planted distance <= %d", best, flips)
		}
		for _, mt := range matches {
			if mt.Mismatches != best {
				t.Fatalf("match with distance %d in best stratum %d", mt.Mismatches, best)
			}
		}
		// No stratum below best may exist.
		if best > 0 {
			lower, _ := Search(idx, pattern, best-1)
			if len(lower) != 0 {
				t.Fatalf("found matches below reported best %d", best)
			}
		}
	}
	// Nothing within budget.
	if best, ms, err := SearchBest(idx, []byte("a"), 0); err != nil || best != 0 || len(ms) == 0 {
		t.Fatalf("single-char best: %d %v %v", best, ms, err)
	}
	if _, _, err := SearchBest(idx, []byte("acg"), -1); err == nil {
		t.Error("negative maxK accepted")
	}
}

func TestSearchBestNoMatch(t *testing.T) {
	idx, _ := New([]byte("aaaaaaaaaaaaaaaa"))
	best, ms, err := SearchBest(idx, []byte("ttttttttt"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if best != -1 || ms != nil {
		t.Fatalf("expected no match, got %d %v", best, ms)
	}
}

func TestSearchWildcard(t *testing.T) {
	idx, err := New([]byte("acgtacatacgt"))
	if err != nil {
		t.Fatal(err)
	}
	pos, err := idx.SearchWildcard([]byte("acNt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 3 || pos[0] != 0 || pos[1] != 4 || pos[2] != 8 {
		t.Fatalf("SearchWildcard = %v, want [0 4 8]", pos)
	}
	// All wildcards.
	pos, err = idx.SearchWildcard([]byte("nn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 11 {
		t.Fatalf("all-wildcard = %d positions", len(pos))
	}
	if _, err := idx.SearchWildcard([]byte("acX")); err == nil {
		t.Error("invalid character accepted")
	}
	if _, err := idx.SearchWildcard(nil); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestQuickAllMethods(t *testing.T) {
	f := func(seed int64, m8, k8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		target := randomDNA(rng, 150)
		pattern := randomDNA(rng, 1+int(m8)%12)
		k := int(k8) % 3
		idx, err := New(target)
		if err != nil {
			return false
		}
		ref, _, err := SearchMethod(idx, pattern, k, AlgorithmA)
		if err != nil {
			return false
		}
		for _, method := range allMethods[1:] {
			got, _, err := SearchMethod(idx, pattern, k, method)
			if err != nil || len(got) != len(ref) {
				return false
			}
			for i := range got {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
