package suffixarray

// BuildDC3 constructs the suffix array with the Kärkkäinen–Sanders DC3
// (skew) algorithm — the other classic linear-time construction the
// BWT-construction literature the paper cites builds on. It is an
// independent implementation to cross-validate SA-IS (the two must
// agree on every input); Build, SA-IS, is the one the index uses.
func BuildDC3(text []byte) []int32 {
	n := len(text)
	sa := make([]int32, n)
	if n == 0 {
		return sa
	}
	if n == 1 {
		sa[0] = 0
		return sa
	}
	s := make([]int32, n+3) // padded with three zeros as DC3 requires
	for i, b := range text {
		s[i] = int32(b) + 1
	}
	res := dc3(s, n, 257)
	copy(sa, res)
	return sa
}

// dc3 computes the suffix array of s[0:n] (values in [1, sigma), padding
// zeros beyond n).
func dc3(s []int32, n, sigma int) []int32 {
	n0 := (n + 2) / 3
	n1 := (n + 1) / 3
	n2 := n / 3
	n02 := n0 + n2

	// Positions i mod 3 != 0, padded so that n1+n2 entries exist even
	// when n mod 3 == 1.
	s12 := make([]int32, n02+3)
	j := 0
	for i := 0; i < n+(n0-n1); i++ {
		if i%3 != 0 {
			s12[j] = int32(i)
			j++
		}
	}

	// Radix sort the mod-1/2 suffixes by their first three characters.
	sa12 := make([]int32, n02+3)
	radixPass(s12, sa12, s[2:], n02, sigma)
	radixPass(sa12, s12, s[1:], n02, sigma)
	radixPass(s12, sa12, s, n02, sigma)

	// Name the triples.
	name := 0
	var c0, c1, c2 int32 = -1, -1, -1
	for i := 0; i < n02; i++ {
		p := sa12[i]
		if s[p] != c0 || s[p+1] != c1 || s[p+2] != c2 {
			name++
			c0, c1, c2 = s[p], s[p+1], s[p+2]
		}
		if p%3 == 1 {
			s12[p/3] = int32(name) // left half
		} else {
			s12[p/3+int32(n0)] = int32(name) // right half
		}
	}

	if name < n02 {
		// Recurse on the named sequence.
		sub := dc3(s12, n02, name+1)
		copy(sa12, sub)
		// Restore the names as ranks.
		for i := 0; i < n02; i++ {
			s12[sa12[i]] = int32(i) + 1
		}
	} else {
		// Names unique: derive sa12 directly.
		for i := 0; i < n02; i++ {
			sa12[s12[i]-1] = int32(i)
		}
	}

	// Sort the mod-0 suffixes by (first char, rank of following mod-1).
	s0 := make([]int32, n0)
	j = 0
	for i := 0; i < n02; i++ {
		if sa12[i] < int32(n0) {
			s0[j] = 3 * sa12[i]
			j++
		}
	}
	sa0 := make([]int32, n0)
	radixPass(s0, sa0, s, n0, sigma)

	// Merge sa0 and sa12.
	sa := make([]int32, n)
	getI := func(t int) int32 {
		if sa12[t] < int32(n0) {
			return sa12[t]*3 + 1
		}
		return (sa12[t]-int32(n0))*3 + 2
	}
	rank12 := func(i int32) int32 {
		// Rank of suffix i (i mod 3 != 0) within the 1/2 group.
		if i%3 == 1 {
			return s12[i/3]
		}
		return s12[i/3+int32(n0)]
	}
	leq2 := func(a1, a2, b1, b2 int32) bool {
		return a1 < b1 || (a1 == b1 && a2 <= b2)
	}
	leq3 := func(a1, a2, a3, b1, b2, b3 int32) bool {
		return a1 < b1 || (a1 == b1 && leq2(a2, a3, b2, b3))
	}
	p, t, k := 0, n0-n1, 0
	for k < n {
		i := getI(t) // current mod-1/2 suffix
		var jj int32
		if p < n0 {
			jj = sa0[p]
		}
		var takeI bool
		if t >= n02 {
			takeI = false
		} else if p >= n0 {
			takeI = true
		} else if i%3 == 1 {
			takeI = leq2(s[i], rank12(i+1), s[jj], rank12(jj+1))
		} else {
			takeI = leq3(s[i], s[i+1], rank12(i+2), s[jj], s[jj+1], rank12(jj+2))
		}
		if takeI {
			sa[k] = i
			t++
		} else {
			sa[k] = jj
			p++
		}
		k++
	}
	return sa
}

// radixPass stable-sorts src (suffix start positions) into dst by the
// character key[src[i]].
func radixPass(src, dst []int32, key []int32, n, sigma int) {
	count := make([]int32, sigma+1)
	for i := 0; i < n; i++ {
		count[key[src[i]]]++
	}
	var sum int32
	for c := 0; c <= sigma; c++ {
		count[c], sum = sum, sum+count[c]
	}
	for i := 0; i < n; i++ {
		dst[count[key[src[i]]]] = src[i]
		count[key[src[i]]]++
	}
}
