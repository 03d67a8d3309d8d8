// Quickstart: index a tiny target and search a pattern with k mismatches,
// reproducing the paper's introductory example (§I): the pattern
// aaaaacaaac occurs in ccacacagaagcc starting at (1-based) position 3
// with exactly 4 mismatches.
package main

import (
	"fmt"
	"log"

	"bwtmatch"
)

func main() {
	target := []byte("ccacacagaagcc")
	pattern := []byte("aaaaacaaac")

	idx, err := bwtmatch.New(target)
	if err != nil {
		log.Fatal(err)
	}

	matches, err := bwtmatch.Search(idx, pattern, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pattern %q in target %q with k=4:\n", pattern, target)
	for _, m := range matches {
		window := target[m.Pos : m.Pos+len(pattern)]
		fmt.Printf("  position %d (1-based %d): %q, %d mismatches\n",
			m.Pos, m.Pos+1, window, m.Mismatches)
	}
	if len(matches) == 0 {
		fmt.Println("  no occurrences")
	}
}
