// Package naive provides the index-free k-mismatch oracle every search
// path is tested against: the O(nm) sliding counter with early exit.
package naive

// Hamming returns the number of mismatching positions between a and b,
// which must have equal length, stopping early once the count exceeds
// limit (it returns limit+1 in that case).
func Hamming(a, b []byte, limit int) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
			if d > limit {
				return d
			}
		}
	}
	return d
}

// Find returns every 0-based position p such that text[p:p+len(pattern)]
// differs from pattern in at most k positions, by direct comparison with
// early exit: the O(nm) (practically O(nk)) reference matcher.
func Find(text, pattern []byte, k int) []int32 {
	var out []int32
	m := len(pattern)
	if m == 0 || m > len(text) {
		return out
	}
	for p := 0; p+m <= len(text); p++ {
		if Hamming(text[p:p+m], pattern, k) <= k {
			out = append(out, int32(p))
		}
	}
	return out
}
