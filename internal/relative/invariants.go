//go:build kminvariants

package relative

import (
	"fmt"

	"bwtmatch/internal/alphabet"
)

// CheckInvariants verifies the delta's derived structures against
// their payload. It is O(rows) and intended for tests and fuzz
// harnesses under the kminvariants tag; the default build compiles it
// to a no-op.
//
// Checked:
//   - BaseDel's rank directory
//   - no insertion marker past TenantRows()
//   - the exception sets match the marker counts, and both sides keep
//     the same number of common rows
//   - every split directory entry holds the insertion rows before its
//     tenant row and that row's Split j, recounted by a sweep
//   - every exception block's checkpoint is the per-base count of the
//     characters before it, and no code past the last character is set
func (d *Delta) CheckInvariants() error {
	if err := d.BaseDel.CheckInvariants(); err != nil {
		return fmt.Errorf("relative: deletion markers: %w", err)
	}
	rows := d.TenantIns.Len()
	words := d.TenantIns.Words()
	for i := rows; i < len(words)*64; i++ {
		if words[i>>6]>>uint(i&63)&1 == 1 {
			return fmt.Errorf("relative: stale insertion marker bit %d", i)
		}
	}
	insOnes := d.TenantIns.Count()
	if insOnes != int(d.ins.n) || d.BaseDel.Ones() != int(d.del.n) {
		return fmt.Errorf("relative: %d insertion and %d deletion chars for %d and %d marked rows",
			d.ins.n, d.del.n, insOnes, d.BaseDel.Ones())
	}
	if rows-insOnes != d.BaseDel.Len()-d.BaseDel.Ones() {
		return fmt.Errorf("relative: common rows disagree (%d tenant, %d base)",
			rows-insOnes, d.BaseDel.Len()-d.BaseDel.Ones())
	}

	if want := rows/dirRows + 1; len(d.dir) != want {
		return fmt.Errorf("relative: %d split directory entries for %d tenant rows, want %d", len(d.dir), rows, want)
	}
	var t, j uint32
	for i := 0; i <= rows; i++ {
		if i%dirRows == 0 {
			if e, s := d.dir[i/dirRows], i/dirRows; e.t != t || e.j != j {
				return fmt.Errorf("relative: split directory entry %d is (t %d, j %d), want (%d, %d)", s, e.t, e.j, t, j)
			}
		}
		if i == rows {
			break
		}
		if d.TenantIns.Get(i) {
			t++
			continue
		}
		for d.BaseDel.Get(int(j)) {
			j++
		}
		j++
	}

	for _, side := range []struct {
		name string
		s    *charSeq
	}{{"insertion", &d.ins}, {"deletion", &d.del}} {
		s := side.s
		if want := int(s.n)/occRate + 1; len(s.blocks) != want {
			return fmt.Errorf("relative: %d %s blocks for %d chars, want %d", len(s.blocks), side.name, s.n, want)
		}
		var running [alphabet.Bases]int32
		for b := range s.blocks {
			if s.blocks[b].occ != running {
				return fmt.Errorf("relative: %s block %d checkpoint %v, want %v", side.name, b, s.blocks[b].occ, running)
			}
			for p := int32(b) * occRate; p < min(int32(b+1)*occRate, s.n); p++ {
				if ch := s.at(p); ch != alphabet.Sentinel {
					running[ch-1]++
				}
			}
		}
		for p := s.n; p < int32(len(s.blocks))*occRate; p++ {
			if s.blocks[p/occRate].codes[p%occRate/alphabet.CodesPerWord]>>(p%alphabet.CodesPerWord*2)&3 != 0 {
				return fmt.Errorf("relative: stale %s code at %d past %d chars", side.name, p, s.n)
			}
		}
	}
	return nil
}
