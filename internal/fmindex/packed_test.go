package fmindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bwtmatch/internal/alphabet"
)

func TestPackedCountAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		bwt := make([]byte, n)
		for i := range bwt {
			bwt[i] = byte(1 + rng.Intn(4))
		}
		bwt[rng.Intn(n)] = alphabet.Sentinel
		p := newPackedBWT(bwt, 1)
		for q := 0; q < 100; q++ {
			from := int32(rng.Intn(n + 1))
			to := from + int32(rng.Intn(n+1-int(from)))
			for x := byte(alphabet.A); x <= alphabet.T; x++ {
				want := int32(0)
				for i := from; i < to; i++ {
					if bwt[i] == x {
						want++
					}
				}
				if got := p.count(x, from, to); got != want {
					t.Fatalf("count(%d, %d, %d) = %d, want %d (bwt %v)",
						x, from, to, got, want, bwt)
				}
			}
		}
		for i := range bwt {
			if p.get(int32(i)) != bwt[i] {
				t.Fatalf("get(%d) = %d, want %d", i, p.get(int32(i)), bwt[i])
			}
		}
		if !bytes.Equal(p.unpack(), bwt) {
			t.Fatalf("unpack() = %v, want %v", p.unpack(), bwt)
		}
	}
}

// TestPackedIndexEquivalence checks that the checkpoint spacing changes
// only the index size: at every rate, including ones that are not a
// power of two and take the division branch of the checkpoint lookup,
// the BWT, Search, Locate and StepAll agree with a rate-1 index.
func TestPackedIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	for trial := 0; trial < 20; trial++ {
		text := randomRanks(rng, 100+rng.Intn(500))
		rate := []int{4, 32, 64, 5, 48}[rng.Intn(5)]
		dense, err := Build(text, Options{OccRate: 1, SARate: 8})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := Build(text, Options{OccRate: rate, SARate: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dense.BWT(), idx.BWT()) {
			t.Fatal("BWT materialization differs")
		}
		for q := 0; q < 40; q++ {
			pat := randomRanks(rng, 1+rng.Intn(12))
			ivD, ivR := dense.Search(pat), idx.Search(pat)
			if ivD != ivR {
				t.Fatalf("rate %d: Search(%v): %v vs %v", rate, pat, ivD, ivR)
			}
			a := mustLocate(t, dense, ivD)
			b := mustLocate(t, idx, ivR)
			if len(a) != len(b) {
				t.Fatalf("rate %d: Locate counts differ: %d vs %d", rate, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("rate %d: Locate differs: %v vs %v", rate, a, b)
				}
			}
		}
		var ka, kb [alphabet.Bases]Interval
		for q := 0; q < 50; q++ {
			lo := int32(rng.Intn(dense.N() + 1))
			hi := lo + int32(rng.Intn(dense.N()+2-int(lo)))
			dense.StepAll(Interval{lo, hi}, &ka)
			idx.StepAll(Interval{lo, hi}, &kb)
			if ka != kb {
				t.Fatalf("rate %d: StepAll([%d,%d)) differs", rate, lo, hi)
			}
		}
		if idx.SizeBytes() >= dense.SizeBytes() {
			t.Errorf("rate %d index not smaller than rate 1: %d vs %d",
				rate, idx.SizeBytes(), dense.SizeBytes())
		}
	}
}

// TestPackedStepSingleton checks StepSingleton on every row at the
// default spacing against the paper's rate 4 and a rate that is not a
// power of two.
func TestPackedStepSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	text := randomRanks(rng, 800)
	def, _ := Build(text, DefaultOptions())
	for _, rate := range []int{4, 5} {
		idx, _ := Build(text, Options{OccRate: rate, SARate: 16})
		for row := int32(0); row <= int32(def.N()); row++ {
			x1, c1, ok1 := def.StepSingleton(Interval{row, row + 1})
			x2, c2, ok2 := idx.StepSingleton(Interval{row, row + 1})
			if x1 != x2 || c1 != c2 || ok1 != ok2 {
				t.Fatalf("rate %d row %d: (%d,%v,%v) vs (%d,%v,%v)", rate, row, x1, c1, ok1, x2, c2, ok2)
			}
		}
	}
}

func TestPackedQuick(t *testing.T) {
	f := func(seed int64, n8 uint8, m8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randomRanks(rng, 1+int(n8))
		pat := randomRanks(rng, 1+int(m8)%10)
		idx, err := Build(text, Options{OccRate: 64, SARate: 4})
		if err != nil {
			return false
		}
		return idx.Count(pat) == naiveCount(text, pat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// BenchmarkOcc times exact backward search of 60-base patterns over a
// 1 MiB text at the paper's rate 4, the default 32 and rate 64.
func BenchmarkOcc(b *testing.B) {
	rng := rand.New(rand.NewSource(134))
	text := randomRanks(rng, 1<<20)
	pats := make([][]byte, 64)
	for i := range pats {
		p := rng.Intn(len(text) - 60)
		pats[i] = text[p : p+60]
	}
	for _, rate := range []int{4, 32, 64} {
		idx, err := Build(text, Options{OccRate: rate, SARate: 16})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rate=%d", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Count(pats[i%len(pats)])
			}
		})
	}
}
