//go:build kminvariants

package bitvec

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCheckInvariantsDetectsCorruption tampers with each piece of the
// rank structure and requires CheckInvariants to notice. Only built
// under the kminvariants tag (the stub cannot detect anything).
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Rank {
		rng := rand.New(rand.NewSource(11))
		v := New(1500)
		for i := 0; i < 1500; i++ {
			if rng.Intn(2) == 0 {
				v.Set(i)
			}
		}
		return NewRank(v)
	}

	cases := []struct {
		name   string
		tamper func(r *Rank)
		want   string // the check that must report it, when one is pinned
	}{
		{"block checkpoint", func(r *Rank) { r.blocks[1]++ }, ""},
		{"cached ones", func(r *Rank) { r.ones++ }, ""},
		{"payload bit flip", func(r *Rank) { r.v.words[3] ^= 1 << 17 }, ""},
		{"stale tail bit", func(r *Rank) { r.v.words[len(r.v.words)-1] |= 1 << 63 }, ""},
		{"truncated blocks", func(r *Rank) { r.blocks = r.blocks[:len(r.blocks)-1] }, ""},
	}
	for _, tc := range cases {
		r := build()
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("pristine structure rejected: %v", err)
		}
		tc.tamper(r)
		err := r.CheckInvariants()
		if err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected by %q, want the %q check", tc.name, err, tc.want)
		}
	}
}
