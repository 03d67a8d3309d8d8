//go:build kminvariants

package relative

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCheckInvariantsDetectsCorruption tampers with each derived piece
// of a delta and requires CheckInvariants to report it by the check
// that owns it. Only built under the kminvariants tag.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Delta {
		rng := rand.New(rand.NewSource(12))
		base := randSeq(rng, 5000)
		tenant, pairs := editScript(rng, base, 0.02, false)
		b := NewBuilder(base, tenant)
		for _, p := range pairs {
			b.Match(p[0], p[1])
		}
		return b.Finish()
	}
	cases := []struct {
		name   string
		tamper func(d *Delta)
		want   string
	}{
		{"directory count", func(d *Delta) { d.dir[3].t++ }, "split directory entry 3 "},
		{"directory split", func(d *Delta) { d.dir[5].j-- }, "split directory entry 5 "},
		{"missing directory entry", func(d *Delta) { d.dir = d.dir[:len(d.dir)-1] }, "split directory entries"},
		{"insertion checkpoint", func(d *Delta) { d.ins.blocks[1].occ[2]++ }, "insertion block 1 checkpoint"},
		{"deletion code", func(d *Delta) { d.del.blocks[0].codes[1] ^= 1 << 8 }, "deletion block 1 checkpoint"},
		{"stale code", func(d *Delta) {
			d.ins.blocks[len(d.ins.blocks)-1].codes[1] |= 3 << 62
		}, "stale insertion code"},
		{"deletion markers", func(d *Delta) { d.BaseDel.Words()[2] ^= 1 << 5 }, "deletion markers"},
	}
	for _, tc := range cases {
		d := build()
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("pristine delta rejected: %v", err)
		}
		tc.tamper(d)
		err := d.CheckInvariants()
		if err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected by %q, want the %q check", tc.name, err, tc.want)
		}
	}
}
