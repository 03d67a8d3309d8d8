// SNP scanning: locate every near-occurrence of a probe sequence in a
// genome and report at which offsets the genome disagrees with the probe
// — the "polymorphisms among individuals" use case from the paper's
// introduction. Each reported site lists the probe base and the observed
// genome base, like a tiny variant caller.
package main

import (
	"flag"
	"fmt"
	"log"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/dna"
)

func main() {
	bases := flag.Int("bases", 1<<19, "genome length")
	k := flag.Int("k", 3, "mismatch budget")
	flag.Parse()

	genome, err := dna.Generate(dna.GenomeConfig{
		Length: *bases, RepeatFraction: 0.5, RepeatUnit: 250, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	text := alphabet.Decode(genome)
	idx, err := bwtmatch.New(text)
	if err != nil {
		log.Fatal(err)
	}

	// Use a window from inside a repeat-rich region as the probe: its
	// family members differ from it by point substitutions, which is
	// exactly what the k-mismatch search surfaces.
	probe := append([]byte(nil), text[len(text)/2:len(text)/2+60]...)

	matches, err := bwtmatch.Search(idx, probe, *k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probe of %d bases, k=%d: %d sites\n", len(probe), *k, len(matches))
	shown := 0
	for _, m := range matches {
		fmt.Printf("  site @%d (%d mismatches)", m.Pos, m.Mismatches)
		if m.Mismatches > 0 {
			fmt.Print(":")
			window := text[m.Pos : m.Pos+len(probe)]
			for off := range probe {
				if window[off] != probe[off] {
					fmt.Printf(" %d:%c>%c", off, probe[off], window[off])
				}
			}
		}
		fmt.Println()
		shown++
		if shown == 12 {
			fmt.Printf("  ... and %d more\n", len(matches)-shown)
			break
		}
	}
}
