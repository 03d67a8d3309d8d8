// Benchmarks regenerating every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the mapping and for full-scale runs
// via cmd/kmbench). Each benchmark prints or measures the same quantity
// the corresponding artifact reports, on a reduced-scale corpus so that
// `go test -bench=.` completes on a laptop; pass -benchscale to change.
package bwtmatch_test

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"bwtmatch"
	"bwtmatch/internal/bench"
)

var benchScale = flag.Int("benchscale", 32, "corpus divisor for benchmarks (1 = 16 MiB largest genome)")

// corpora lazily builds and caches one corpus per genome spec.
var corpora struct {
	mu    sync.Mutex
	cache map[string]*bench.Corpus
}

func corpus(b *testing.B, specIdx int) *bench.Corpus {
	b.Helper()
	corpora.mu.Lock()
	defer corpora.mu.Unlock()
	if corpora.cache == nil {
		corpora.cache = make(map[string]*bench.Corpus)
	}
	spec := bench.Specs(*benchScale)[specIdx]
	if c, ok := corpora.cache[spec.Name]; ok {
		return c
	}
	c, err := bench.BuildCorpus(spec)
	if err != nil {
		b.Fatal(err)
	}
	corpora.cache[spec.Name] = c
	return c
}

func reads(b *testing.B, c *bench.Corpus, length, count int) [][]byte {
	b.Helper()
	rs, err := c.Reads(length, count, 42)
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// timeReads runs every read through the method once per iteration,
// after preparing it (a baseline's structure) outside the timing.
func timeReads(b *testing.B, c *bench.Corpus, rs [][]byte, k int, m bench.Method) {
	b.Helper()
	search, err := m.Prepare(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			if _, err := search(r, k); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(rs)), "reads/op")
}

// BenchmarkTable1_IndexBuild measures index construction per genome
// (Table 1's corpus column plus our build-cost extension).
func BenchmarkTable1_IndexBuild(b *testing.B) {
	for i, spec := range bench.Specs(*benchScale) {
		c := corpus(b, i) // generation cached; we re-build only the index
		b.Run(spec.Name, func(b *testing.B) {
			b.SetBytes(int64(spec.Bases))
			for i := 0; i < b.N; i++ {
				idx, err := bwtmatch.New(decoded(c))
				if err != nil {
					b.Fatal(err)
				}
				_ = idx.SizeBytes()
			}
		})
	}
}

func decoded(c *bench.Corpus) []byte {
	out := make([]byte, len(c.Ranks))
	const bases = "$acgt"
	for i, r := range c.Ranks {
		out[i] = bases[r]
	}
	return out
}

// BenchmarkFig11a_TimeVsK sweeps k for the four compared methods
// (Fig. 11(a): average matching time vs k, reads of length 100).
func BenchmarkFig11a_TimeVsK(b *testing.B) {
	c := corpus(b, 0)
	rs := reads(b, c, 100, 10)
	for _, k := range []int{1, 2, 3, 4, 5} {
		for _, m := range bench.Methods {
			b.Run(fmt.Sprintf("k=%d/%v", k, m), func(b *testing.B) {
				timeReads(b, c, rs, k, m)
			})
		}
	}
}

// BenchmarkFig11b_TimeVsLength sweeps read length at k = 5 (Fig. 11(b)).
func BenchmarkFig11b_TimeVsLength(b *testing.B) {
	c := corpus(b, 0)
	for _, length := range []int{50, 100, 200, 300} {
		rs := reads(b, c, length, 10)
		for _, m := range bench.Methods {
			b.Run(fmt.Sprintf("len=%d/%v", length, m), func(b *testing.B) {
				timeReads(b, c, rs, 5, m)
			})
		}
	}
}

// BenchmarkTable2_MTreeLeaves measures Algorithm A over the paper's
// k/length grid and reports n′ (Table 2) as a metric.
func BenchmarkTable2_MTreeLeaves(b *testing.B) {
	c := corpus(b, 0)
	for _, g := range []struct{ k, length int }{{5, 50}, {10, 100}, {20, 150}, {30, 200}} {
		rs := reads(b, c, g.length, 5)
		b.Run(fmt.Sprintf("k=%d/len=%d", g.k, g.length), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for _, r := range rs {
					_, st, err := bwtmatch.SearchMethod(c.Index, r, g.k, bwtmatch.AlgorithmA)
					if err != nil {
						b.Fatal(err)
					}
					total += st.MTreeLeaves
				}
			}
			b.ReportMetric(float64(total)/float64(len(rs)), "leaves/read")
		})
	}
}

// BenchmarkFig12_PerGenome compares the four methods across all five
// genomes (reconstructed Fig. 12), k = 5, length 100.
func BenchmarkFig12_PerGenome(b *testing.B) {
	for i, spec := range bench.Specs(*benchScale) {
		c := corpus(b, i)
		rs := reads(b, c, 100, 5)
		for _, m := range bench.Methods {
			b.Run(fmt.Sprintf("%s/%v", spec.Name, m), func(b *testing.B) {
				timeReads(b, c, rs, 5, m)
			})
		}
	}
}

// BenchmarkFig13_OccRate measures the rankall sampling trade-off
// (reconstructed Fig. 13): Algorithm A query time per occ rate; index
// size is reported as a metric.
func BenchmarkFig13_OccRate(b *testing.B) {
	base := corpus(b, 0)
	for _, rate := range []int{4, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("occrate=%d", rate), func(b *testing.B) {
			idx, err := bwtmatch.New(decoded(base), bwtmatch.WithOccRate(rate))
			if err != nil {
				b.Fatal(err)
			}
			rs := reads(b, base, 100, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range rs {
					if _, err := bwtmatch.Search(idx, r, 5); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(idx.SizeBytes()*8)/float64(idx.Len()), "bits/base")
		})
	}
}

// BenchmarkSeedExtension compares the seed-and-extend extension against
// Algorithm A across k (the kmbench "seedext" experiment).
func BenchmarkSeedExtension(b *testing.B) {
	c := corpus(b, 0)
	rs := reads(b, c, 100, 10)
	for _, k := range []int{2, 4} {
		for _, m := range []bench.Method{bench.IndexMethod(bwtmatch.AlgorithmA), bench.IndexMethod(bwtmatch.Seed)} {
			b.Run(fmt.Sprintf("k=%d/%v", k, m), func(b *testing.B) {
				timeReads(b, c, rs, k, m)
			})
		}
	}
}

// BenchmarkAblation quantifies the 2x2 design space of DESIGN.md: the
// φ(i) bound and the M-tree memo, separately and together.
func BenchmarkAblation(b *testing.B) {
	c := corpus(b, 0)
	rs := reads(b, c, 100, 10)
	variants := []bench.Method{
		bench.IndexMethod(bwtmatch.STree), bench.IndexMethod(bwtmatch.BWTBaseline),
		bench.IndexMethod(bwtmatch.AlgorithmANoPhi), bench.IndexMethod(bwtmatch.AlgorithmA),
	}
	for _, k := range []int{3, 5} {
		for _, m := range variants {
			b.Run(fmt.Sprintf("k=%d/%v", k, m), func(b *testing.B) {
				timeReads(b, c, rs, k, m)
			})
		}
	}
}
