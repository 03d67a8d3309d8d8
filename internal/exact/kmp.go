// Package exact implements the classical exact-matching pieces the Amir
// baseline (internal/amir) is built on: the Knuth–Morris–Pratt failure
// function and the string period it yields, which steer break
// selection, and the Aho–Corasick multi-pattern automaton, which scans
// the target for all blocks in one pass (paper §II).
//
// Everything operates on arbitrary byte strings; the DNA pipeline passes
// rank-encoded text.
package exact

// KMPNext builds the failure function ("next-table") of pattern:
// next[i] = length of the longest proper prefix of pattern[:i+1] that is
// also its suffix.
func KMPNext(pattern []byte) []int {
	next := make([]int, len(pattern))
	k := 0
	for i := 1; i < len(pattern); i++ {
		for k > 0 && pattern[k] != pattern[i] {
			k = next[k-1]
		}
		if pattern[k] == pattern[i] {
			k++
		}
		next[i] = k
	}
	return next
}

// Period returns the smallest period of s: the least p >= 1 such that
// s[i] == s[i+p] for all valid i. A string with Period(s) <= len(s)/2 is
// periodic; Amir's break selection prefers aperiodic blocks.
func Period(s []byte) int {
	if len(s) == 0 {
		return 0
	}
	next := KMPNext(s)
	return len(s) - next[len(s)-1]
}
