// Package suffixarray builds suffix arrays with the linear-time SA-IS
// algorithm and derives LCP arrays (Kasai), range-minimum structures and
// longest-common-extension queries from them. It is the substrate under the
// BWT construction (paper §III-B) and under the R-array "kangaroo"
// construction (paper §IV-B).
package suffixarray

import (
	"math/bits"
	"slices"
)

// Build returns the suffix array of text: a permutation sa of 0..n-1 with
// text[sa[i]:] < text[sa[i+1]:] lexicographically. The text is treated as a
// sequence of bytes; no implicit sentinel is appended, suffixes are compared
// with the usual "prefix is smaller" rule (SA-IS handles this by treating
// the end of the text as a virtual smallest sentinel).
func Build(text []byte) []int32 {
	sa := make([]int32, len(text))
	BuildInto(text, sa)
	return sa
}

// BuildInto writes the suffix array of text into sa[:len(text)]. It
// works in place: the reduced problems, the LMS names and, where they
// fit, the bucket counters of the recursion live in the part of sa not
// yet holding output, so beyond sa it allocates only what a recursion
// level's buckets cannot find there.
func BuildInto(text []byte, sa []int32) {
	sa = sa[:len(text)]
	var work [2 * 256]int32
	sais(text, 256, sa, work[:])
}

// symbol is a character of an SA-IS text: a byte at the top level, an
// LMS-substring name in the recursion.
type symbol interface{ ~byte | ~int32 }

// sais writes the suffix array of text, whose characters lie in
// [0, sigma), into sa (len(text) entries), with a virtual sentinel
// smaller than every character after the text. work holds the bucket
// pointers (sigma entries) and, if it has room for 2·sigma, the cached
// bucket sizes; without them every bucket pass recounts the text.
//
// No type array is kept. A scan from the right classifies each
// position from its successor; the induction passes know the type of
// every suffix they place and keep the type of its predecessor in the
// slot's sign (induceL, induceS). Slot value 0 is both suffix 0 and
// an empty slot: neither induces anything.
func sais[T symbol](text []T, sigma int, sa, work []int32) {
	n := len(text)
	switch n {
	case 0:
		return
	case 1:
		sa[0] = 0
		return
	}
	var cnt []int32
	ptr := work[:sigma]
	if len(work) >= 2*sigma {
		cnt, ptr = work[:sigma], work[sigma:2*sigma]
		clear(cnt)
		for _, c := range text {
			cnt[c]++
		}
	}

	// Stage 1: sort the LMS substrings by inducing from the LMS
	// positions in arbitrary order. With at most one there is nothing
	// to sort.
	n1 := placeLMS(text, sa, cnt, ptr)
	if n1 > 1 {
		induceL(text, sa, cnt, ptr, true)
		induceS(text, sa, cnt, ptr, true)
		compactLMS(sa)

		// Stage 2: name the substrings; equal names need the recursion
		// to order their suffixes, distinct names already did. top
		// bounds the characters, for packing short substrings.
		top := sigma
		for cnt != nil && cnt[top-1] == 0 {
			top--
		}
		names := nameLMS(text, sa, n1, top)
		if names < n1 {
			sub, free, reduced := sa[:n1], sa[n1:n-n1], sa[n-n1:]
			if len(free) < names {
				free = make([]int32, names)
			}
			sais(reduced, names, sub, free)
			// The reduced text is spent; its slots take the LMS
			// positions the reduced suffixes index.
			lms := reduced
			lmsPositions(text, lms)
			for i, r := range sub {
				sub[i] = lms[r]
			}
		}
		placeSorted(text, sa, n1, cnt, ptr)
	}

	// Stage 3: induce every suffix from the sorted LMS suffixes.
	induceL(text, sa, cnt, ptr, false)
	induceS(text, sa, cnt, ptr, false)
}

// bucketHeads sets ptr[c] to the first slot of bucket c.
func bucketHeads[T symbol](text []T, cnt, ptr []int32) {
	if cnt == nil {
		clear(ptr)
		for _, c := range text {
			ptr[c]++
		}
		cnt = ptr
	}
	var sum int32
	for c, k := range cnt {
		ptr[c] = sum
		sum += k
	}
}

// bucketTails sets ptr[c] to one past the last slot of bucket c.
func bucketTails[T symbol](text []T, cnt, ptr []int32) {
	if cnt == nil {
		clear(ptr)
		for _, c := range text {
			ptr[c]++
		}
		cnt = ptr
	}
	var sum int32
	for c, k := range cnt {
		sum += k
		ptr[c] = sum
	}
}

// placeLMS empties sa and puts every LMS position (an S-type position
// whose predecessor is L-type) at the tail of its bucket, returning how
// many there are. The scan runs from the right, so each position's
// type follows from its successor's: S if smaller, L if larger, the
// successor's own type if equal. Position n-1 is L-type, being larger
// than the virtual sentinel, which is LMS but never placed.
func placeLMS[T symbol](text []T, sa, cnt, ptr []int32) int {
	clear(sa)
	bucketTails(text, cnt, ptr)
	n1 := 0
	sType, c1 := false, text[len(text)-1]
	for i := len(text) - 2; i >= 0; i-- {
		c0 := text[i]
		if c0 < c1 {
			sType = true
		} else if c0 > c1 && sType {
			sType = false
			ptr[c1]--
			sa[ptr[c1]] = int32(i + 1)
			n1++
		}
		c1 = c0
	}
	return n1
}

// induceL places every L-type suffix, left to right, from the virtual
// sentinel and the LMS suffixes in sa. A positive slot j is a suffix
// whose predecessor j-1 is L-type: an LMS suffix, or an L-type suffix
// this pass placed. Placing L-type p, the pass knows p-1 is S-type
// exactly when text[p-1] < text[p], and then stores p as ^p, for
// induceS. With sub set (stage 1) a slot is emptied once used, so only
// the ^p slots outlive the pass.
func induceL[T symbol](text []T, sa, cnt, ptr []int32, sub bool) {
	bucketHeads(text, cnt, ptr)
	place := func(p int32) {
		c := text[p]
		if p > 0 && text[p-1] < c {
			p = ^p
		}
		sa[ptr[c]] = p
		ptr[c]++
	}
	place(int32(len(text) - 1))
	for i, j := range sa {
		if j <= 0 {
			continue
		}
		place(j - 1)
		if sub {
			sa[i] = 0
		}
	}
}

// induceS places every S-type suffix, right to left, from the ^s slots
// induceL left: s is restored (or, with sub set, emptied) and its
// predecessor s-1, S-type, goes to the tail of its bucket, as ^(s-1)
// if s-2 is S-type too (text[s-2] <= text[s-1]). The LMS suffixes
// induceL started from are overwritten before the scan reaches them.
// With sub set, what is left is the LMS suffixes, in order.
func induceS[T symbol](text []T, sa, cnt, ptr []int32, sub bool) {
	bucketTails(text, cnt, ptr)
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j >= 0 {
			continue
		}
		s := ^j
		if sub {
			sa[i] = 0
		} else {
			sa[i] = s
		}
		p := s - 1
		c := text[p]
		if p > 0 && text[p-1] <= c {
			p = ^p
		}
		ptr[c]--
		sa[ptr[c]] = p
	}
}

// compactLMS moves the LMS suffixes stage 1 left in sa, in their
// order, to its front.
func compactLMS(sa []int32) {
	k := 0
	for _, j := range sa {
		if j > 0 {
			sa[k] = j
			k++
		}
	}
}

// nameLMS names the n1 sorted LMS substrings in sa[:n1], equal
// substrings alike, and writes the names in text order to the last n1
// slots of sa: the reduced text. It returns the number of names. LMS
// positions lie at least two apart, so slot n1 + p/2 is free for
// position p, first for its substring and then for its name. The
// substring is held as its length, or, when its characters (all below
// top) pack into 31 bits, as the complement of that packing, so equal
// short substrings are told apart without reading the text.
func nameLMS[T symbol](text []T, sa []int32, n1, top int) int {
	n := len(text)
	clear(sa[n1:])
	width := bits.Len(uint(top))
	maxLen := 31/width - 1
	next := n
	sType, c1 := false, text[n-1]
	for i := n - 2; i >= 0; i-- {
		c0 := text[i]
		if c0 < c1 {
			sType = true
		} else if c0 > c1 && sType {
			sType = false
			p := i + 1
			v := int32(next - p)
			if next-p <= maxLen && next < n {
				var code uint32
				for _, c := range text[p : next+1] {
					code = code<<width | uint32(c) + 1
				}
				v = ^int32(code)
			}
			sa[n1+p/2] = v
			next = p
		}
		c1 = c0
	}

	names := 0
	prev, prevV := -1, int32(0)
	for _, p := range sa[:n1] {
		q := int(p)
		v := sa[n1+q/2]
		if prev < 0 || v != prevV || v > 0 && !equalLMS(text, prev, q, int(v)) {
			names++
		}
		sa[n1+q/2] = int32(names)
		prev, prevV = q, v
	}

	w := n - 1
	for i := n - 1; i >= n1; i-- {
		if v := sa[i]; v != 0 {
			sa[w] = v - 1
			w--
		}
	}
	return names
}

// equalLMS reports whether the LMS substrings at p and q, both running
// length characters to the next LMS position, are equal. Equal
// characters make equal types, since both end on an S-type position;
// the one substring that runs into the virtual sentinel is unique.
func equalLMS[T symbol](text []T, p, q, length int) bool {
	n := len(text)
	if p+length == n || q+length == n {
		return false
	}
	return slices.Equal(text[p:p+length+1], text[q:q+length+1])
}

// lmsPositions writes the LMS positions of text, in text order, to lms.
func lmsPositions[T symbol](text []T, lms []int32) {
	w := len(lms)
	sType, c1 := false, text[len(text)-1]
	for i := len(text) - 2; i >= 0; i-- {
		c0 := text[i]
		if c0 < c1 {
			sType = true
		} else if c0 > c1 && sType {
			sType = false
			w--
			lms[w] = int32(i + 1)
		}
		c1 = c0
	}
}

// placeSorted moves the n1 sorted LMS suffixes in sa[:n1] to the tails
// of their buckets, keeping their order, and empties every other slot.
// Each suffix moves right or stays, so none is overwritten unread.
func placeSorted[T symbol](text []T, sa []int32, n1 int, cnt, ptr []int32) {
	clear(sa[n1:])
	bucketTails(text, cnt, ptr)
	for i := n1 - 1; i >= 0; i-- {
		p := sa[i]
		sa[i] = 0
		c := text[p]
		ptr[c]--
		sa[ptr[c]] = p
	}
}
