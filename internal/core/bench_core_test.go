package core

import (
	"testing"

	"bwtmatch/internal/dna"
	"bwtmatch/internal/fmindex"
)

// benchWorkload is shared by the method benchmarks: a repeat-rich 256 KiB
// genome and five 100 bp reads with sequencing errors.
func benchWorkload(b *testing.B) (*Searcher, [][]byte) {
	b.Helper()
	g, err := dna.Generate(dna.GenomeConfig{
		Length: 256 << 10, GC: 0.42, MarkovBias: 0.15,
		RepeatFraction: 0.4, TandemFraction: 0.03, Seed: 1001,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSearcher(g, fmindex.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	reads, err := dna.Simulate(g, dna.ReadConfig{Length: 100, Count: 5, ErrorRate: 0.02, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	out := make([][]byte, len(reads))
	for i, r := range reads {
		out[i] = r.Seq
	}
	return s, out
}

func benchMethod(b *testing.B, method Method, k int) {
	s, reads := benchWorkload(b)
	sc := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reads {
			if _, _, err := s.FindScratch(sc, nil, r, k, method, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAlgorithmA_K5(b *testing.B)    { benchMethod(b, MethodMTree, 5) }
func BenchmarkAlgorithmA_K8(b *testing.B)    { benchMethod(b, MethodMTree, 8) }
func BenchmarkBWTBaseline_K5(b *testing.B)   { benchMethod(b, MethodSTreePhi, 5) }
func BenchmarkBWTBaseline_K8(b *testing.B)   { benchMethod(b, MethodSTreePhi, 8) }
func BenchmarkSTreeUnpruned_K5(b *testing.B) { benchMethod(b, MethodSTree, 5) }
