package core

// computePhi returns min(φ, k+1), where φ[i] (0-based, φ[m] = 0) is the
// number of consecutive, disjoint substrings of pattern[i:] that do not
// occur in the target (§IV-A), each taken as the shortest absent prefix
// of what remains. Each absent substring forces at least one mismatch,
// so a branch with e mismatches spent at position i is hopeless if
// e + φ[i] > k. The traversal only ever compares φ with a remaining
// budget of at most k, so the capped values make exactly the cuts the
// full ones would. The second result is the number of backward-search
// steps the occurrence tests spent (Stats.PhiSteps).
//
// φ never increases with i: if pattern[i..q] occurs, so does
// pattern[i+1..q]. So min(φ, k+1) is a staircase fixed by at most k+1
// thresholds T_1 > T_2 > … with φ[j] ≥ c exactly when j < T_c:
//
//   - T_1 is the least j such that pattern[j:m] occurs;
//   - T_{c+1} is the least j such that pattern[j:T_c-1] occurs, because
//     φ[j] ≥ c+1 exactly when the shortest absent prefix of pattern[j:]
//     ends before T_c-1, i.e. when pattern[j:T_c-1] is absent.
//
// Each threshold is one leastPresent search, so φ costs
// O(min(k, φ[0])+1) searches rather than one matching-statistics walk
// per pattern position.
func (s *Searcher) computePhi(sc *Scratch, pattern []byte, k int) ([]int, int) {
	m := len(pattern)
	sc.phi = intBuf(sc.phi, m+1)
	phi := sc.phi
	steps := 0
	// phi[j] = c on [T_{c+1}, hi), where hi = T_c (and T_0 = m+1). c
	// counts thresholds already found and never exceeds min(k+1, m), so
	// k = math.MaxInt cannot overflow it.
	hi := m + 1
	for c := 0; ; c++ {
		t := 0
		if c <= k && hi > 1 {
			var st int
			t, st = s.leastPresent(pattern[:hi-1])
			steps += st
		}
		for j := t; j < hi; j++ {
			phi[j] = c
		}
		if t == 0 {
			return phi, steps
		}
		hi = t
	}
}

// leastPresent returns the least j such that p[j:] occurs in the target
// (len(p) when only the empty suffix does), plus the rank steps spent.
// Occurrence of p[j:] is monotone in j, so it gallops outwards from the
// end of p, probing j = x-1, x-2, x-4, … until a probe fails, then
// binary-searches the last gap. A probe is one MatchLen walk, which
// stops at the first character whose extension is absent.
func (s *Searcher) leastPresent(p []byte) (int, int) {
	x := len(p)
	steps := 0
	present := func(j int) bool {
		matched, st := s.idx.MatchLen(p[j:])
		steps += st
		return matched == x-j
	}
	lo, hi := -1, x // p[lo:] is absent (lo = -1: none known), p[hi:] occurs
	for d := 1; hi > 0; d *= 2 {
		j := max(x-d, 0)
		if !present(j) {
			lo = j
			break
		}
		hi = j
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if present(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, steps
}
