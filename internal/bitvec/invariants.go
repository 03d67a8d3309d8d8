//go:build kminvariants

package bitvec

import (
	"fmt"
	"math/bits"
)

// InvariantsEnabled reports whether this build carries the deep
// invariant checks (the kminvariants build tag).
const InvariantsEnabled = true

// CheckInvariants verifies the rank directory against a naive popcount
// recomputation and exercises rank/select round-trips. It is O(n) and
// intended for tests and fuzz harnesses under the kminvariants tag; the
// default build compiles it to a no-op.
//
// Checked:
//   - every superblock checkpoint equals the running popcount
//   - the cached total equals the true popcount
//   - bits at positions >= Len() are all zero (no stale tail garbage)
//   - Rank1(i) equals a bit-by-bit running count at sampled positions
//   - Select1/Select0 round-trip through Rank1/Rank0 at sampled j
func (r *Rank) CheckInvariants() error {
	n := r.v.n
	if need := (n + 63) / 64; len(r.v.words) < need {
		return fmt.Errorf("bitvec: %d words cannot hold %d bits", len(r.v.words), n)
	}
	nb := (len(r.v.words) + blockWords - 1) / blockWords
	if len(r.blocks) != nb+1 {
		return fmt.Errorf("bitvec: %d superblock checkpoints for %d words, want %d",
			len(r.blocks), len(r.v.words), nb+1)
	}
	c := 0
	for i, w := range r.v.words {
		if i%blockWords == 0 {
			if got := int(r.blocks[i/blockWords]); got != c {
				return fmt.Errorf("bitvec: block[%d] = %d, want %d", i/blockWords, got, c)
			}
		}
		c += bits.OnesCount64(w)
	}
	if got := int(r.blocks[nb]); got != c {
		return fmt.Errorf("bitvec: final block checkpoint = %d, want %d", got, c)
	}
	if r.ones != c {
		return fmt.Errorf("bitvec: cached ones = %d, true popcount %d", r.ones, c)
	}
	for i := n; i < len(r.v.words)*64; i++ {
		if r.v.words[i>>6]>>uint(i&63)&1 == 1 {
			return fmt.Errorf("bitvec: stale bit set at tail position %d (len %d)", i, n)
		}
	}

	// Rank cross-check against a running count; sampled so huge vectors
	// stay O(n) with a small constant.
	stride := 1
	if n > 4096 {
		stride = n / 4096
	}
	run := 0
	for i := 0; i < n; i++ {
		if i%stride == 0 {
			if got := r.Rank1(i); got != run {
				return fmt.Errorf("bitvec: Rank1(%d) = %d, want %d", i, got, run)
			}
		}
		if r.v.Get(i) {
			run++
		}
	}
	if got := r.Rank1(n); got != run {
		return fmt.Errorf("bitvec: Rank1(len) = %d, want %d", got, run)
	}

	// Select round-trips: the j-th 1 must be a set bit with exactly j-1
	// ones before it (and symmetrically for zeros).
	jStride := 1
	if r.ones > 2048 {
		jStride = r.ones / 2048
	}
	for j := 1; j <= r.ones; j += jStride {
		p := r.Select1(j)
		if p < 0 || p >= n || !r.Get(p) || r.Rank1(p) != j-1 {
			return fmt.Errorf("bitvec: Select1(%d) = %d fails round-trip", j, p)
		}
	}
	if p := r.Select1(r.ones + 1); p != -1 {
		return fmt.Errorf("bitvec: Select1(ones+1) = %d, want -1", p)
	}
	zeros := n - r.ones
	jStride = 1
	if zeros > 2048 {
		jStride = zeros / 2048
	}
	for j := 1; j <= zeros; j += jStride {
		p := r.Select0(j)
		if p < 0 || p >= n || r.Get(p) || r.Rank0(p) != j-1 {
			return fmt.Errorf("bitvec: Select0(%d) = %d fails round-trip", j, p)
		}
	}
	if p := r.Select0(zeros + 1); p != -1 {
		return fmt.Errorf("bitvec: Select0(zeros+1) = %d, want -1", p)
	}
	return nil
}
