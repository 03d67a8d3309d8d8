// Method comparison: run the same k-mismatch queries through every
// implemented matcher — the paper's Algorithm A, its three experimental
// baselines (BWT with φ pruning, Amir's filter, Cole's suffix tree) and
// the online Landau–Vishkin matcher — verifying they agree and printing
// their work statistics side by side. A compact, runnable version of the
// paper's §V comparison.
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
	bases := flag.Int("bases", 1<<19, "genome length")
	count := flag.Int("reads", 20, "number of reads")
	k := flag.Int("k", 4, "mismatch budget")
	flag.Parse()

	genome, err := dna.Generate(dna.GenomeConfig{
		Length: *bases, RepeatFraction: 0.4, MarkovBias: 0.15, Seed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}
	idx, err := bwtmatch.New(alphabet.Decode(genome))
	if err != nil {
		log.Fatal(err)
	}
	reads, err := dna.Simulate(genome, dna.ReadConfig{
		Length: 100, Count: *count, ErrorRate: 0.02, Seed: 32,
	})
	if err != nil {
		log.Fatal(err)
	}

	methods := []bwtmatch.Method{
		bwtmatch.AlgorithmA, bwtmatch.BWTBaseline, bwtmatch.Amir,
		bwtmatch.Cole, bwtmatch.Online,
	}
	fmt.Printf("%-10s %12s %10s %12s %10s\n", "method", "time/read", "matches", "bwt-steps", "n'-leaves")
	var reference int
	for i, method := range methods {
		var matches, steps, leaves int
		start := time.Now()
		for _, r := range reads {
			ms, st, err := bwtmatch.SearchMethod(idx, alphabet.Decode(r.Seq), *k, method)
			if err != nil {
				log.Fatal(err)
			}
			matches += len(ms)
			steps += st.StepCalls
			leaves += st.MTreeLeaves
		}
		elapsed := time.Since(start)
		if i == 0 {
			reference = matches
		} else if matches != reference {
			log.Fatalf("%v found %d matches, Algorithm A found %d — methods disagree",
				method, matches, reference)
		}
		fmt.Printf("%-10v %12v %10d %12d %10d\n",
			method, (elapsed / time.Duration(len(reads))).Round(time.Microsecond),
			matches, steps, leaves)
	}
	fmt.Println("all methods agree on every match")
}
