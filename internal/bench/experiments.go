package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"bwtmatch"
)

// Table1 reproduces Table 1 (genome characteristics) for the synthetic
// corpus, adding index size and construction time columns. It builds
// the paper's configuration, a rankall checkpoint every 4 positions.
func Table1(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "# Table 1: characteristics of genomes (synthetic substitutes, scale=%d)\n", cfg.Scale)
	fmt.Fprintf(w, "%-16s %-22s %14s %12s %12s %10s\n",
		"genome", "substitutes", "paper-bases", "bases", "index-bytes", "build")
	for _, spec := range Specs(cfg.Scale) {
		c, err := BuildCorpus(spec, bwtmatch.WithOccRate(4))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %-22s %14d %12d %12d %10v\n",
			spec.Name, spec.PaperName, spec.PaperBases, spec.Bases,
			c.Index.SizeBytes(), c.BuildTime.Round(time.Millisecond))
	}
	return nil
}

// Fig11a reproduces Fig. 11(a): average matching time per read against
// varying k, on the largest genome, reads of length 100.
func Fig11a(w io.Writer, cfg Config) error {
	spec := Specs(cfg.Scale)[0]
	c, err := BuildCorpus(spec)
	if err != nil {
		return err
	}
	reads, err := c.Reads(100, cfg.Reads, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Fig 11(a): avg time per read (ms) vs k; genome=%s (%d bases), len=100, reads=%d\n",
		spec.Name, spec.Bases, len(reads))
	fmt.Fprintf(w, "%-4s", "k")
	for _, m := range Methods {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, k := range []int{1, 2, 3, 4, 5, 6, 8, 10} {
		fmt.Fprintf(w, "%-4d", k)
		for _, m := range Methods {
			d, _, err := TimeMethod(c, reads, k, m)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12.3f", msPerRead(d, len(reads)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig11b reproduces Fig. 11(b): average matching time per read against
// read length, k = 5.
func Fig11b(w io.Writer, cfg Config) error {
	spec := Specs(cfg.Scale)[0]
	c, err := BuildCorpus(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Fig 11(b): avg time per read (ms) vs read length; genome=%s, k=5, reads=%d\n",
		spec.Name, cfg.Reads)
	fmt.Fprintf(w, "%-6s", "len")
	for _, m := range Methods {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, length := range []int{50, 100, 150, 200, 250, 300} {
		reads, err := c.Reads(length, cfg.Reads, cfg.Seed+int64(length))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d", length)
		for _, m := range Methods {
			d, _, err := TimeMethod(c, reads, 5, m)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12.3f", msPerRead(d, len(reads)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table2 reproduces Table 2: the number of M-tree leaf nodes (n′) for the
// paper's k/length grid.
func Table2(w io.Writer, cfg Config) error {
	spec := Specs(cfg.Scale)[0]
	c, err := BuildCorpus(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Table 2: number of leaf nodes of M-trees; genome=%s (%d bases), reads=%d\n",
		spec.Name, spec.Bases, cfg.Reads)
	fmt.Fprintf(w, "%-12s %15s %15s\n", "k/len", "total-leaves", "avg-per-read")
	grid := []struct{ k, length int }{{5, 50}, {10, 100}, {20, 150}, {30, 200}}
	for _, g := range grid {
		reads, err := c.Reads(g.length, cfg.Reads, cfg.Seed+int64(g.length))
		if err != nil {
			return err
		}
		total := 0
		for _, r := range reads {
			_, st, err := bwtmatch.SearchMethod(c.Index, r, g.k, bwtmatch.AlgorithmA)
			if err != nil {
				return err
			}
			total += st.MTreeLeaves
		}
		fmt.Fprintf(w, "%2d/%-9d %15d %15d\n", g.k, g.length, total, total/len(reads))
	}
	return nil
}

// Fig12 is the reconstructed per-genome comparison (the paper's text
// truncates after introducing it): all five genomes, k = 5, length 100.
func Fig12(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "# Fig 12 (reconstructed): avg time per read (ms) per genome; k=5, len=100, reads=%d\n", cfg.Reads)
	fmt.Fprintf(w, "%-16s %10s", "genome", "bases")
	for _, m := range Methods {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, spec := range Specs(cfg.Scale) {
		c, err := BuildCorpus(spec)
		if err != nil {
			return err
		}
		reads, err := c.Reads(100, cfg.Reads, cfg.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %10d", spec.Name, spec.Bases)
		for _, m := range Methods {
			d, _, err := TimeMethod(c, reads, 5, m)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12.3f", msPerRead(d, len(reads)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig13 is the reconstructed space/time trade-off of the rankall sampling
// rate (§III-A) over the 2-bit BWT: index size per base and Algorithm A
// query time, from the paper's rate 4 to rate 128, with the default
// (32) as one point on the curve.
func Fig13(w io.Writer, cfg Config) error {
	spec := Specs(cfg.Scale)[0]
	fmt.Fprintf(w, "# Fig 13 (reconstructed): rankall sampling trade-off; genome=%s, k=5, len=100, reads=%d\n",
		spec.Name, cfg.Reads)
	fmt.Fprintf(w, "%-10s %14s %12s %12s\n", "layout", "index-bytes", "bits/base", "A()-ms/read")
	for _, rate := range []int{4, 16, 32, 64, 128} {
		c, err := BuildCorpus(spec, bwtmatch.WithOccRate(rate))
		if err != nil {
			return err
		}
		reads, err := c.Reads(100, cfg.Reads, cfg.Seed)
		if err != nil {
			return err
		}
		d, _, err := TimeMethod(c, reads, 5, IndexMethod(bwtmatch.AlgorithmA))
		if err != nil {
			return err
		}
		sz := c.Index.SizeBytes()
		fmt.Fprintf(w, "%-10s %14d %12.2f %12.3f\n",
			fmt.Sprintf("rate%d", rate), sz, float64(sz*8)/float64(spec.Bases), msPerRead(d, len(reads)))
	}
	return nil
}

// Ablation quantifies the two design choices DESIGN.md calls out: the
// M-tree memoization (Algorithm A vs the plain S-tree) and the φ(i)
// heuristic (pruned vs unpruned S-tree).
func Ablation(w io.Writer, cfg Config) error {
	spec := Specs(cfg.Scale)[0]
	c, err := BuildCorpus(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Ablations (2x2: φ bound x M-tree memo): genome=%s, len=100, reads=%d\n", spec.Name, cfg.Reads)
	fmt.Fprintf(w, "%-4s %14s %14s %14s %14s\n", "k", "S-tree(ms)", "+phi(ms)", "+memo(ms)", "A()(ms)")
	for _, k := range []int{3, 5} {
		reads, err := c.Reads(100, cfg.Reads, cfg.Seed)
		if err != nil {
			return err
		}
		methods := []Method{
			IndexMethod(bwtmatch.STree), IndexMethod(bwtmatch.BWTBaseline),
			IndexMethod(bwtmatch.AlgorithmANoPhi), IndexMethod(bwtmatch.AlgorithmA),
		}
		row := make([]float64, len(methods))
		for i, m := range methods {
			d, _, err := TimeMethod(c, reads, k, m)
			if err != nil {
				return err
			}
			row[i] = msPerRead(d, len(reads))
		}
		fmt.Fprintf(w, "%-4d %14.3f %14.3f %14.3f %14.3f\n", k, row[0], row[1], row[2], row[3])
	}
	return nil
}

// SeedExt is the extension experiment: the index-based seed-and-extend
// matcher against the paper's four methods across k, demonstrating the
// composition of the paper's index with its filter baseline.
func SeedExt(w io.Writer, cfg Config) error {
	spec := Specs(cfg.Scale)[0]
	c, err := BuildCorpus(spec)
	if err != nil {
		return err
	}
	reads, err := c.Reads(100, cfg.Reads, cfg.Seed)
	if err != nil {
		return err
	}
	methods := append(slices.Clone(Methods), IndexMethod(bwtmatch.Seed))
	fmt.Fprintf(w, "# Extension: index-based seed-and-extend; genome=%s, len=100, reads=%d\n",
		spec.Name, len(reads))
	fmt.Fprintf(w, "%-4s", "k")
	for _, m := range methods {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, k := range []int{1, 2, 3, 4, 5} {
		fmt.Fprintf(w, "%-4d", k)
		for _, m := range methods {
			d, _, err := TimeMethod(c, reads, k, m)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12.3f", msPerRead(d, len(reads)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func msPerRead(d time.Duration, reads int) float64 {
	if reads == 0 {
		return 0
	}
	return float64(d.Microseconds()) / 1000 / float64(reads)
}
