// Package bwtmatch is a from-scratch Go implementation of the string
// matching with k mismatches system of Chen & Wu, "BWT Arrays and
// Mismatching Trees: A New Way for String Matching with k Mismatches"
// (ICDE 2017).
//
// Given a target string s (a genome) and a pattern r (a read), the library
// reports every position of s where r occurs with at most k mismatching
// characters (Hamming distance ≤ k). The target is indexed once with a
// BWT array (FM-index) built over its reverse; queries then run the
// paper's Algorithm A: an S-tree search whose repeated BWT intervals are
// resolved by deriving mismatch information from the pattern against
// itself (a mismatching tree), rather than re-searching the index.
//
// Besides Algorithm A, every index runs the paper's BWT baseline (the
// φ-pruned brute-force search of its reference [34]), the ablations
// STree (no φ bound, no memo) and AlgorithmANoPhi, and the Seed
// seed-and-extend matcher. The paper's text-scanning baselines, Amir's
// filter and Cole's suffix tree, run only in the reproduction harness
// (internal/bench, cmd/kmbench; see EXPERIMENTS.md).
//
// # Quick start
//
//	idx, err := bwtmatch.New([]byte("ccacacagaagcc"))
//	if err != nil { ... }
//	matches, err := bwtmatch.Search(idx, []byte("aaaaacaaac"), 4)
//	// matches[0].Pos == 2, matches[0].Mismatches == 4
//
// Inputs are DNA over {a, c, g, t} (case-insensitive). Use
// bwtmatch.Sanitize to clean sequences containing ambiguity codes first.
//
// Every index layout (Index, ShardedIndex, RelativeIndex) implements one
// search, SearchMethodScratch, which takes any Method, a reusable
// Scratch and an optional Tracer. Search, SearchMethod and SearchBest
// are free functions over the Matcher interface built on it, and bulk
// workloads go through MapAllContext, which runs a batch across worker
// goroutines under a cancellable context. Built indexes persist with
// Save/Load. The server subpackage serves saved indexes over HTTP as a
// long-running daemon (cmd/kmserved).
package bwtmatch
