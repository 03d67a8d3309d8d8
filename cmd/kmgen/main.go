// Command kmgen generates synthetic genomes and simulated reads for use
// with kmsearch, and builds search indexes from sequence files.
//
// Output formats: fasta (default for genomes), fastq (default for
// reads), or lines (one sequence per line).
//
//	kmgen -genome g.fa -bases 1048576 -repeats 0.4 -chromosomes 2
//	kmgen -reads r.fq -from g.fa -length 100 -count 50 -error 0.02
//	kmgen -index g.km -from g.fa -shard-size 1048576 -stream
//	kmgen -append -index g.km -from more.fa
//	kmgen -index tenant.km -from tenant.fa -relative -base ref.km
//
// -relative builds a delta-compressed tenant index against the saved
// base at -base: the container stores only the BWT differences plus
// Locate samples, and search results are byte-identical to a standalone
// build (DESIGN.md §13). kmsearch and kmserved load it transparently,
// resolving the base from the recorded path hint.
//
// -stream builds the sharded container through the streaming builder:
// the input is read in bounded chunks and each shard is built and
// flushed as it fills, so peak memory is O(shard size), independent of
// the genome length — the terabase-construction path (DESIGN.md §12).
// -append extends an existing sharded container in place, rebuilding
// only the trailing shards the new bytes can reach.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/dna"
	"bwtmatch/internal/obs"
	"bwtmatch/internal/seqio"
)

func main() {
	genomeOut := flag.String("genome", "", "write a genome to this file")
	readsOut := flag.String("reads", "", "write simulated reads to this file")
	from := flag.String("from", "", "genome file to simulate reads from")
	format := flag.String("format", "", "fasta|fastq|lines (default: fasta for genomes, fastq for reads)")
	bases := flag.Int("bases", 1<<20, "total genome length")
	chromosomes := flag.Int("chromosomes", 1, "number of chromosomes to split the genome into")
	gc := flag.Float64("gc", 0.41, "GC content")
	markov := flag.Float64("markov", 0.15, "order-1 Markov bias")
	repeats := flag.Float64("repeats", 0.3, "repeat fraction")
	length := flag.Int("length", 100, "read length")
	count := flag.Int("count", 50, "read count")
	errRate := flag.Float64("error", 0.02, "per-base substitution rate")
	rc := flag.Bool("rc", false, "emit reverse-complement reads half the time")
	seed := flag.Int64("seed", 1, "generator seed")
	indexOut := flag.String("index", "", "with -genome: also build a search index and save it to this file")
	buildP := flag.Int("build-p", 1, "parallel workers for -index construction")
	shards := flag.Int("shards", 0, "with -index: build a sharded index with this many shards")
	shardSize := flag.Int("shard-size", 0, "with -index: build a sharded index with shards owning this many bases (overrides -shards)")
	maxPattern := flag.Int("max-pattern", bwtmatch.DefaultMaxPatternLen, "with -shards/-shard-size: longest pattern the sharded index answers")
	stream := flag.Bool("stream", false, "with -index -from: stream-build the sharded container in O(shard size) memory (requires -shard-size)")
	appendMode := flag.Bool("append", false, "append the sequences in -from to the existing sharded container at -index")
	relative := flag.Bool("relative", false, "with -index -from: build a delta-compressed relative index against -base")
	basePath := flag.String("base", "", "with -relative: saved monolithic index the tenant is expressed against")
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	switch {
	case *genomeOut != "":
		if *chromosomes < 1 {
			fatal(fmt.Errorf("need at least one chromosome"))
		}
		recs := make([]seqio.Record, *chromosomes)
		per := *bases / *chromosomes
		for i := range recs {
			g, err := dna.Generate(dna.GenomeConfig{
				Length: per, GC: *gc, MarkovBias: *markov,
				RepeatFraction: *repeats, Seed: *seed + int64(i),
			})
			if err != nil {
				fatal(err)
			}
			recs[i] = seqio.Record{ID: fmt.Sprintf("chr%d", i+1), Seq: alphabet.Decode(g)}
		}
		if err := writeRecords(*genomeOut, recs, pick(*format, "fasta")); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d chromosome(s), %d bases total to %s\n",
			len(recs), per*len(recs), *genomeOut)
		if *indexOut != "" {
			refs := make([]bwtmatch.Reference, len(recs))
			for i, rec := range recs {
				refs[i] = bwtmatch.Reference{Name: rec.ID, Seq: rec.Seq}
			}
			if err := buildIndexFile(*indexOut, refs, true, *buildP, *shards, *shardSize, *maxPattern, time.Now()); err != nil {
				fatal(err)
			}
		}
	case *readsOut != "":
		if *from == "" {
			fatal(fmt.Errorf("-reads requires -from <genome file>"))
		}
		genome, err := readConcatenated(*from)
		if err != nil {
			fatal(err)
		}
		reads, err := dna.Simulate(genome, dna.ReadConfig{
			Length: *length, Count: *count, ErrorRate: *errRate,
			ReverseComplement: *rc, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		recs := make([]seqio.Record, len(reads))
		for i, r := range reads {
			strand := "+"
			if r.RC {
				strand = "-"
			}
			recs[i] = seqio.Record{
				ID:  fmt.Sprintf("read%d pos=%d errors=%d strand=%s", i, r.Pos, r.Errors, strand),
				Seq: alphabet.Decode(r.Seq),
			}
		}
		if err := writeRecords(*readsOut, recs, pick(*format, "fastq")); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d reads to %s\n", len(reads), *readsOut)
	case *appendMode:
		if *indexOut == "" || *from == "" {
			fatal(fmt.Errorf("-append requires -index <sharded container> and -from <sequence file>"))
		}
		// Geometry is the manifest's; only an explicit flag is forwarded
		// (OpenAppend rejects a mismatch rather than silently rebuilding
		// with different geometry).
		opts := []bwtmatch.Option{bwtmatch.WithBuildWorkers(*buildP)}
		if explicit["shard-size"] {
			opts = append(opts, bwtmatch.WithShardSize(*shardSize))
		}
		if explicit["max-pattern"] {
			opts = append(opts, bwtmatch.WithMaxPatternLen(*maxPattern))
		}
		start := time.Now()
		sb, err := bwtmatch.OpenAppend(*indexOut, opts...)
		if err != nil {
			fatal(err)
		}
		oldLen := sb.Len()
		st, err := streamInto(sb, *from)
		if err != nil {
			sb.Abort() // the stream error is the one to report
			fatal(err)
		}
		if err := sb.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("appended %d bases (%d record(s)) to %s: %d -> %d bases, %d of %d shard frames reused, in %v, peak RSS %d bytes\n",
			st.bases, st.records, *indexOut, oldLen, sb.Len(), sb.Appended(), sb.Shards(),
			time.Since(start).Round(time.Millisecond), obs.PeakRSS())
	case *indexOut != "" && *from != "":
		start := time.Now()
		if *relative {
			if *basePath == "" {
				fatal(fmt.Errorf("-relative requires -base <saved index>"))
			}
			if *stream || *shards > 0 || *shardSize > 0 {
				fatal(fmt.Errorf("-relative builds are monolithic; drop -stream/-shards/-shard-size"))
			}
			refs, named, err := loadSequences(*from)
			if err != nil {
				fatal(err)
			}
			if err := buildRelativeFile(*indexOut, *basePath, refs, named, *buildP, start); err != nil {
				fatal(err)
			}
			return
		}
		if *stream {
			if *shardSize < 1 {
				fatal(fmt.Errorf("-stream requires -shard-size (the shard count of -shards depends on the total length, which a stream does not know)"))
			}
			sb, err := bwtmatch.NewStreamBuilder(*indexOut,
				bwtmatch.WithShardSize(*shardSize),
				bwtmatch.WithMaxPatternLen(*maxPattern),
				bwtmatch.WithBuildWorkers(*buildP))
			if err != nil {
				fatal(err)
			}
			st, err := streamInto(sb, *from)
			if err != nil {
				sb.Abort() // the stream error is the one to report
				fatal(err)
			}
			if err := sb.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("stream-built sharded index (%d shards, %d bases, %d record(s)) from %s in %v, saved to %s, peak RSS %d bytes\n",
				sb.Shards(), sb.Len(), st.records, *from,
				time.Since(start).Round(time.Millisecond), *indexOut, obs.PeakRSS())
			return
		}
		refs, named, err := loadSequences(*from)
		if err != nil {
			fatal(err)
		}
		if err := buildIndexFile(*indexOut, refs, named, *buildP, *shards, *shardSize, *maxPattern, start); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// streamStats is what streamInto consumed from the input file.
type streamStats struct {
	bases   int64
	records int
}

// streamInto feeds the sequence file at src into sb chunk by chunk,
// sanitizing each chunk the way readConcatenated sanitizes whole
// records (Sanitize is per-byte, so the results agree). FASTA/FASTQ
// records become named references; line-oriented inputs carry no names,
// so the index gets no reference table — matching the in-memory paths.
func streamInto(sb *bwtmatch.StreamBuilder, src string) (streamStats, error) {
	var st streamStats
	f, err := os.Open(src)
	if err != nil {
		return st, err
	}
	defer f.Close() // read-only handle; the Close error is inert
	cr := seqio.NewChunkReader(f)
	format, err := cr.Format()
	if err == io.EOF {
		return st, fmt.Errorf("%s is empty", src)
	}
	if err != nil {
		return st, err
	}
	named := format != "lines"
	for {
		ch, err := cr.Next()
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return st, err
		}
		if ch.First {
			st.records++
			if named {
				sb.StartRef(ch.ID)
			}
		}
		clean, _ := alphabet.Sanitize(ch.Seq)
		n, err := sb.Write(clean)
		st.bases += int64(n)
		if err != nil {
			return st, err
		}
	}
}

// loadSequences reads a whole sequence file into reference records,
// sanitized for indexing. named reports whether the input format
// carries sequence names (FASTA/FASTQ headers); line-oriented inputs do
// not, and build without a reference table.
func loadSequences(path string) ([]bwtmatch.Reference, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close() // read-only handle; the Close error is inert
	cr := seqio.NewChunkReader(f)
	format, err := cr.Format()
	if err == io.EOF {
		return nil, false, fmt.Errorf("%s is empty", path)
	}
	if err != nil {
		return nil, false, err
	}
	var refs []bwtmatch.Reference
	for {
		ch, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, err
		}
		clean, _ := alphabet.Sanitize(ch.Seq)
		if ch.First {
			refs = append(refs, bwtmatch.Reference{Name: ch.ID, Seq: clean})
		} else {
			last := &refs[len(refs)-1]
			last.Seq = append(last.Seq, clean...)
		}
	}
	return refs, format != "lines", nil
}

// buildIndexFile builds and saves an in-memory index over the loaded
// sequences: sharded when a shard geometry flag is given, monolithic
// otherwise. Unnamed inputs are concatenated without a reference table.
func buildIndexFile(path string, refs []bwtmatch.Reference, named bool, buildP, shards, shardSize, maxPattern int, start time.Time) error {
	if !named {
		var seq []byte
		for _, r := range refs {
			seq = append(seq, r.Seq...)
		}
		refs = nil
		if shards > 0 || shardSize > 0 {
			idx, err := bwtmatch.NewSharded(seq, shardOpts(buildP, shards, shardSize, maxPattern)...)
			if err != nil {
				return err
			}
			return saveSharded(idx, path, start)
		}
		idx, err := bwtmatch.New(seq, bwtmatch.WithBuildWorkers(buildP))
		if err != nil {
			return err
		}
		return saveMono(idx, path, buildP, start)
	}
	if shards > 0 || shardSize > 0 {
		idx, err := bwtmatch.NewShardedRefs(refs, shardOpts(buildP, shards, shardSize, maxPattern)...)
		if err != nil {
			return err
		}
		return saveSharded(idx, path, start)
	}
	idx, err := bwtmatch.NewRefs(refs, bwtmatch.WithBuildWorkers(buildP))
	if err != nil {
		return err
	}
	return saveMono(idx, path, buildP, start)
}

// buildRelativeFile loads the base index, builds a delta-compressed
// tenant index over the loaded sequences, and saves the relative
// container with basePath recorded as the hint future loads resolve.
func buildRelativeFile(path, basePath string, refs []bwtmatch.Reference, named bool, buildP int, start time.Time) error {
	base, err := bwtmatch.LoadFile(basePath)
	if err != nil {
		return fmt.Errorf("loading base %s: %w", basePath, err)
	}
	opts := []bwtmatch.Option{bwtmatch.WithBuildWorkers(buildP)}
	var rx *bwtmatch.RelativeIndex
	if named {
		rx, err = bwtmatch.NewRelativeRefs(base, refs, opts...)
	} else {
		var seq []byte
		for _, r := range refs {
			seq = append(seq, r.Seq...)
		}
		rx, err = bwtmatch.NewRelative(base, seq, opts...)
	}
	if err != nil {
		return fmt.Errorf("relative build against %s: %w", basePath, err)
	}
	rx.SetBasePath(basePath)
	if err := rx.SaveFile(path); err != nil {
		return err
	}
	// A server that loads the container resolves the base from its path
	// hint and keeps it BaseOnly; that is the base's share.
	fmt.Printf("built relative index against %s (%d base-index bytes shared) in %v, saved to %s (%d delta bytes)\n",
		basePath, base.BaseOnly().ResidentBytes(),
		time.Since(start).Round(time.Millisecond), path, rx.DeltaBytes())
	return nil
}

func shardOpts(buildP, shards, shardSize, maxPattern int) []bwtmatch.Option {
	opts := []bwtmatch.Option{
		bwtmatch.WithBuildWorkers(buildP),
		bwtmatch.WithMaxPatternLen(maxPattern),
	}
	if shardSize > 0 {
		opts = append(opts, bwtmatch.WithShardSize(shardSize))
	} else {
		opts = append(opts, bwtmatch.WithShards(shards))
	}
	return opts
}

func saveSharded(idx *bwtmatch.ShardedIndex, path string, start time.Time) error {
	if err := idx.SaveFile(path); err != nil {
		return err
	}
	fmt.Printf("built sharded index (%d shards, max pattern %d) in %v, saved to %s (%d bytes)\n",
		idx.Shards(), idx.MaxPatternLen(),
		time.Since(start).Round(time.Millisecond), path, idx.SizeBytes())
	return nil
}

func saveMono(idx *bwtmatch.Index, path string, buildP int, start time.Time) error {
	if err := idx.SaveFile(path); err != nil {
		return err
	}
	fmt.Printf("built index (%d workers) in %v, saved to %s (%d bytes)\n",
		buildP, time.Since(start).Round(time.Millisecond), path, idx.SizeBytes())
	return nil
}

func pick(format, def string) string {
	if format == "" {
		return def
	}
	return format
}

func readConcatenated(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := seqio.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	var seq []byte
	for _, rec := range recs {
		clean, _ := alphabet.Sanitize(rec.Seq)
		ranks, err := alphabet.Encode(clean)
		if err != nil {
			return nil, err
		}
		seq = append(seq, ranks...)
	}
	return seq, nil
}

func writeRecords(path string, recs []seqio.Record, format string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Close errors are write errors on this path (buffered data hits
	// the disk at Close); merge them into the return value.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	switch format {
	case "fasta":
		return seqio.WriteFasta(f, recs)
	case "fastq":
		return seqio.WriteFastq(f, recs)
	case "lines":
		for _, rec := range recs {
			if _, err := f.Write(append(rec.Seq, '\n')); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kmgen:", err)
	os.Exit(1)
}
