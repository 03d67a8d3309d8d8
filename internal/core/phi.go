package core

// computePhi returns φ where φ[i] (0-based, φ[m] = 0) is the number of
// consecutive, disjoint substrings of pattern[i:] that do not occur in the
// target (§IV-A). Each absent substring forces at least one mismatch, so a
// branch with e mismatches spent at position i is hopeless if e + φ[i] > k.
// The second result is the number of backward-search steps spent on the
// occurrence tests (reported in the traced phi span; not part of
// Stats.StepCalls, which counts only traversal work).
//
// absentEnd[i] = the smallest q such that pattern[i..q] is absent from the
// target (or m if no prefix of pattern[i:] is absent). Occurrence tests are
// forward extensions of the pattern, which on the reverse-text index are
// plain backward-search steps.
func (s *Searcher) computePhi(sc *Scratch, pattern []byte) ([]int, int) {
	m := len(pattern)
	steps := 0
	sc.absent = intBuf(sc.absent, m)
	absentEnd := sc.absent
	for i := 0; i < m; i++ {
		matched, st := s.idx.MatchLen(pattern[i:])
		steps += st
		absentEnd[i] = i + matched // pattern[i..i+matched] is absent (== m: none)
	}
	sc.phi = intBuf(sc.phi, m+1)
	phi := sc.phi
	phi[m] = 0
	for i := m - 1; i >= 0; i-- {
		if absentEnd[i] >= m {
			phi[i] = 0
		} else {
			phi[i] = 1 + phi[absentEnd[i]+1]
		}
	}
	return phi, steps
}
