// Package bench reconstructs the paper's evaluation (§V): the five-genome
// corpus of Table 1 (synthetic substitutes, DESIGN.md §4), the wgsim-like
// read workloads, and one driver per table/figure that prints the same
// rows/series the paper reports. Both cmd/kmbench and the root package's
// testing.B benchmarks are thin wrappers over this package, the one home
// of the paper's text-scanning baselines (methods.go).
package bench

import (
	"fmt"
	"io"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/amir"
	"bwtmatch/internal/dna"
	"bwtmatch/internal/suffixtree"
)

// GenomeSpec describes one synthetic genome of the Table 1 corpus.
type GenomeSpec struct {
	Name string
	// PaperName and PaperBases record what the spec substitutes.
	PaperName  string
	PaperBases int64
	Bases      int
	GC         float64
	MarkovBias float64
	Repeats    float64
	Tandems    float64
	Seed       int64
}

// Specs returns the five-genome corpus. Lengths are the DESIGN.md base
// sizes divided by scale (>= 1); scale 1 yields a 16 MiB largest genome.
func Specs(scale int) []GenomeSpec {
	if scale < 1 {
		scale = 1
	}
	mi := 1 << 20
	return []GenomeSpec{
		{Name: "rat-sim", PaperName: "Rat (Rnor_6.0)", PaperBases: 2_909_701_677,
			Bases: 16 * mi / scale, GC: 0.42, MarkovBias: 0.15, Repeats: 0.40, Tandems: 0.03, Seed: 1001},
		{Name: "zebrafish-sim", PaperName: "Zebra fish (GRCz10)", PaperBases: 1_464_443_456,
			Bases: 8 * mi / scale, GC: 0.37, MarkovBias: 0.15, Repeats: 0.50, Tandems: 0.04, Seed: 1002},
		{Name: "ratchr1-sim", PaperName: "Rat chr1 (Rnor_6.0)", PaperBases: 290_094_217,
			Bases: 4 * mi / scale, GC: 0.42, MarkovBias: 0.15, Repeats: 0.40, Tandems: 0.03, Seed: 1003},
		{Name: "celegans-sim", PaperName: "C. elegans (WBcel235)", PaperBases: 100_286_401,
			Bases: 2 * mi / scale, GC: 0.35, MarkovBias: 0.10, Repeats: 0.17, Tandems: 0.02, Seed: 1004},
		{Name: "cmerolae-sim", PaperName: "C. merolae (ASM9120v1)", PaperBases: 16_728_967,
			Bases: 1 * mi / scale, GC: 0.55, MarkovBias: 0.10, Repeats: 0.10, Tandems: 0.01, Seed: 1005},
	}
}

// Corpus is one generated genome with its search index. Preparing a
// baseline Method keeps its structure here; do not prepare concurrently.
type Corpus struct {
	Spec      GenomeSpec
	Ranks     []byte
	Index     *bwtmatch.Index
	BuildTime time.Duration

	amir *amir.Matcher
	cole *suffixtree.Tree
}

// generate produces the spec's genome (rank-encoded), deterministically.
func (spec GenomeSpec) generate() ([]byte, error) {
	return dna.Generate(dna.GenomeConfig{
		Length:         spec.Bases,
		GC:             spec.GC,
		MarkovBias:     spec.MarkovBias,
		RepeatFraction: spec.Repeats,
		TandemFraction: spec.Tandems,
		Seed:           spec.Seed,
	})
}

// BuildCorpus generates the genome and constructs its index.
func BuildCorpus(spec GenomeSpec, opts ...bwtmatch.Option) (*Corpus, error) {
	g, err := spec.generate()
	if err != nil {
		return nil, err
	}
	return buildCorpusFrom(spec, g, opts...)
}

// buildCorpusFrom indexes an already generated genome — RunJSON uses it
// to reuse the genome it stream-built from before the in-memory builds.
func buildCorpusFrom(spec GenomeSpec, g []byte, opts ...bwtmatch.Option) (*Corpus, error) {
	start := time.Now()
	idx, err := bwtmatch.New(alphabet.Decode(g), opts...)
	if err != nil {
		return nil, err
	}
	return &Corpus{Spec: spec, Ranks: g, Index: idx, BuildTime: time.Since(start)}, nil
}

// Reads simulates count reads of the given length (ASCII DNA), following
// the paper's wgsim default single-read model.
func (c *Corpus) Reads(length, count int, seed int64) ([][]byte, error) {
	rs, err := dna.Simulate(c.Ranks, dna.ReadConfig{
		Length: length, Count: count, ErrorRate: 0.02, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(rs))
	for i, r := range rs {
		out[i] = alphabet.Decode(r.Seq)
	}
	return out, nil
}

// Config bundles experiment-wide knobs.
type Config struct {
	// Scale divides the corpus sizes; 1 reproduces DESIGN.md's 16 MiB
	// largest genome. cmd/kmbench defaults to 8, the testing.B wrappers
	// to 16.
	Scale int
	// Reads per configuration (the paper uses 50).
	Reads int
	// Seed offsets read simulation.
	Seed int64
}

func (cfg *Config) normalize() {
	if cfg.Scale < 1 {
		cfg.Scale = 8
	}
	if cfg.Reads <= 0 {
		cfg.Reads = 50
	}
}

// Run dispatches one experiment by id (see EXPERIMENTS.md) and prints its
// rows to w.
func Run(id string, w io.Writer, cfg Config) error {
	cfg.normalize()
	switch id {
	case "table1":
		return Table1(w, cfg)
	case "table2":
		return Table2(w, cfg)
	case "fig11a":
		return Fig11a(w, cfg)
	case "fig11b":
		return Fig11b(w, cfg)
	case "fig12":
		return Fig12(w, cfg)
	case "fig13":
		return Fig13(w, cfg)
	case "ablation":
		return Ablation(w, cfg)
	case "seedext":
		return SeedExt(w, cfg)
	default:
		return fmt.Errorf("bench: unknown experiment %q", id)
	}
}

// Experiments lists the valid ids for Run.
func Experiments() []string {
	return []string{"table1", "table2", "fig11a", "fig11b", "fig12", "fig13", "ablation", "seedext"}
}
