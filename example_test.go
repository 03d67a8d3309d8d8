package bwtmatch_test

import (
	"fmt"
	"log"

	"bwtmatch"
)

// The paper's introductory example (§I): r = aaaaacaaac occurs in
// s = ccacacagaagcc at 1-based position 3 with exactly 4 mismatches.
func ExampleSearch() {
	idx, err := bwtmatch.New([]byte("ccacacagaagcc"))
	if err != nil {
		log.Fatal(err)
	}
	matches, err := bwtmatch.Search(idx, []byte("aaaaacaaac"), 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("pos %d, %d mismatches\n", m.Pos, m.Mismatches)
	}
	// Output:
	// pos 2, 4 mismatches
}

func ExampleSearchMethod() {
	idx, err := bwtmatch.New([]byte("acagacatacagata"))
	if err != nil {
		log.Fatal(err)
	}
	for _, method := range []bwtmatch.Method{bwtmatch.AlgorithmA, bwtmatch.BWTBaseline, bwtmatch.Seed} {
		matches, _, err := bwtmatch.SearchMethod(idx, []byte("acagaca"), 2, method)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d matches\n", method, len(matches))
	}
	// Output:
	// A(): 3 matches
	// BWT: 3 matches
	// Seed: 3 matches
}

func ExampleNewRefs() {
	idx, err := bwtmatch.NewRefs([]bwtmatch.Reference{
		{Name: "chr1", Seq: []byte("acgtacgtaaaa")},
		{Name: "chr2", Seq: []byte("ttacgtcagtgg")},
	})
	if err != nil {
		log.Fatal(err)
	}
	matches, err := idx.SearchRefs([]byte("acgt"), 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("%s:%d\n", m.Ref, m.Pos)
	}
	// Output:
	// chr1:0
	// chr1:4
	// chr2:2
}
