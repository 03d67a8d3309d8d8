// Read mapping: the workload the paper's introduction motivates. A
// synthetic genome is generated, short reads with sequencing errors are
// simulated from it (both strands), and every read is mapped back with
// k-mismatch search — checking the reverse complement when the forward
// strand yields nothing, exactly as a DNA aligner would.
//
// The example reports mapping accuracy (did the true origin appear among
// the reported positions?) and throughput.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/dna"
)

func main() {
	bases := flag.Int("bases", 1<<20, "genome length")
	count := flag.Int("reads", 200, "number of reads")
	length := flag.Int("length", 100, "read length")
	k := flag.Int("k", 5, "mismatch budget")
	flag.Parse()

	genome, err := dna.Generate(dna.GenomeConfig{
		Length: *bases, RepeatFraction: 0.3, MarkovBias: 0.15, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	idx, err := bwtmatch.New(alphabet.Decode(genome))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d bases in %v (%.1f bits/base)\n",
		idx.Len(), time.Since(start).Round(time.Millisecond),
		float64(idx.SizeBytes()*8)/float64(idx.Len()))

	reads, err := dna.Simulate(genome, dna.ReadConfig{
		Length: *length, Count: *count, ErrorRate: 0.02,
		ReverseComplement: true, Seed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}

	var mapped, correct, multi int
	start = time.Now()
	for _, r := range reads {
		seq := append([]byte(nil), r.Seq...)
		matches, err := bwtmatch.Search(idx, alphabet.Decode(seq), *k)
		if err != nil {
			log.Fatal(err)
		}
		strandPos := int(r.Pos)
		if len(matches) == 0 {
			// Try the other strand.
			rc := alphabet.ReverseComplement(append([]byte(nil), r.Seq...))
			matches, err = bwtmatch.Search(idx, alphabet.Decode(rc), *k)
			if err != nil {
				log.Fatal(err)
			}
		}
		if len(matches) == 0 {
			continue
		}
		mapped++
		if len(matches) > 1 {
			multi++
		}
		for _, m := range matches {
			if m.Pos == strandPos {
				correct++
				break
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("mapped %d/%d reads (%d multi-mapped), true origin recovered for %d\n",
		mapped, len(reads), multi, correct)
	fmt.Printf("%.2f ms/read, %.0f reads/s\n",
		float64(elapsed.Microseconds())/1000/float64(len(reads)),
		float64(len(reads))/elapsed.Seconds())
}
