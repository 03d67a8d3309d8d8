package relative

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bwtmatch/internal/alphabet"
)

// randSeq returns a rank-encoded sequence over ranks 1..4.
func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(1 + rng.Intn(4))
	}
	return s
}

// mutate returns a copy of s with roughly rate-fraction point edits
// (substitutions, single-char insertions, deletions).
func mutate(rng *rand.Rand, s []byte, rate float64) []byte {
	out := make([]byte, 0, len(s)+8)
	for _, ch := range s {
		if rng.Float64() < rate {
			switch rng.Intn(3) {
			case 0: // substitute
				out = append(out, byte(1+rng.Intn(4)))
			case 1: // insert then keep
				out = append(out, byte(1+rng.Intn(4)), ch)
			case 2: // delete
			}
		} else {
			out = append(out, ch)
		}
	}
	return out
}

func TestCommonEmitsValidSubsequence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := randSeq(rng, 10+rng.Intn(300))
		b := mutate(rng, a, 0.05)
		lastA, lastB, pairs := -1, -1, 0
		Common(a, b, 256, func(ai, bi int) {
			if ai <= lastA || bi <= lastB {
				t.Fatalf("non-increasing pair (%d,%d) after (%d,%d)", ai, bi, lastA, lastB)
			}
			if a[ai] != b[bi] {
				t.Fatalf("pair (%d,%d): %d != %d", ai, bi, a[ai], b[bi])
			}
			lastA, lastB = ai, bi
			pairs++
		})
		// A 5% mutation rate must leave most rows matched.
		if min := len(a) / 2; pairs < min {
			t.Fatalf("trial %d: only %d pairs for len %d", trial, pairs, len(a))
		}
	}
}

func TestCommonIdentical(t *testing.T) {
	a := randSeq(rand.New(rand.NewSource(2)), 500)
	n := 0
	Common(a, a, 4, func(ai, bi int) {
		if ai != n || bi != n {
			t.Fatalf("pair (%d,%d), want (%d,%d)", ai, bi, n, n)
		}
		n++
	})
	if n != len(a) {
		t.Fatalf("%d pairs for identical input of %d", n, len(a))
	}
}

func TestCommonCapExceededEmitsTrimOnly(t *testing.T) {
	// Totally dissimilar middles with shared ends: the capped Myers run
	// must give up on the middle but still emit the trimmed prefix and
	// suffix.
	a := append(append([]byte{1, 2, 3}, bytes.Repeat([]byte{1}, 50)...), 4, 3, 2)
	b := append(append([]byte{1, 2, 3}, bytes.Repeat([]byte{2}, 60)...), 4, 3, 2)
	var got []int
	Common(a, b, 2, func(ai, bi int) { got = append(got, ai) })
	if len(got) != 6 {
		t.Fatalf("emitted %d pairs, want 6 (prefix+suffix)", len(got))
	}
}

// buildDelta aligns two BWT-like sequences through Common and the
// Builder, the way the fmindex driver does for one block.
func buildDelta(base, tenant []byte) *Delta {
	b := NewBuilder(base, tenant)
	Common(base, tenant, 256, b.Match)
	return b.Finish()
}

// editScript copies base into a tenant with roughly rate-fraction point
// edits (substitutions, one-row insertions, deletions) plus, when runs
// is set, a run of 700 deleted rows and a run of 650 inserted rows. It
// returns the tenant and the alignment its copies make: each copied
// row as a (base row, tenant row) pair, in increasing order.
func editScript(rng *rand.Rand, base []byte, rate float64, runs bool) (tenant []byte, pairs [][2]int) {
	delRun, insRun := -1, -1
	if runs {
		delRun, insRun = len(base)/3, 2*len(base)/3
	}
	for bi := 0; bi < len(base); bi++ {
		switch {
		case bi == delRun:
			bi += 699
			continue
		case bi == insRun:
			tenant = append(tenant, randSeq(rng, 650)...)
		}
		if rng.Float64() < rate {
			switch rng.Intn(3) {
			case 0: // substitute
				tenant = append(tenant, byte(1+rng.Intn(4)))
				continue
			case 1: // insert, then copy
				tenant = append(tenant, byte(1+rng.Intn(4)))
			case 2: // delete
				continue
			}
		}
		pairs = append(pairs, [2]int{bi, len(tenant)})
		tenant = append(tenant, base[bi])
	}
	return tenant, pairs
}

// TestDeltaBridgesRankQueries builds deltas through the Builder and
// checks every split directory entry and, at every tenant row, Split,
// BaseRow, KeptFrom, the exception characters, OccIns/OccDel(All) and
// the rank bridge against naive counts over the alignment, and
// SplitFrom with the range counts for every row pair up to 64 apart.
// Besides small Myers-aligned blocks it takes deltas of 20,000 rows —
// many directory entries and exception blocks — and one with runs of
// 700 deleted and 650 inserted rows, longer than a rank superblock:
// the deleted run puts the tenant rows after it more than Select0From's
// 16-word scan past their directory entry, so Split reaches the select
// fallback there.
func TestDeltaBridgesRankQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		base := randSeq(rng, 50+rng.Intn(400))
		tenant := mutate(rng, base, 0.08)
		var pairs [][2]int
		Common(base, tenant, 256, func(ai, bi int) { pairs = append(pairs, [2]int{ai, bi}) })
		checkDelta(t, fmt.Sprintf("myers trial %d", trial), base, tenant, pairs)
	}
	for _, tc := range []struct {
		name      string
		rate      float64
		runs      bool
		sentinels bool
	}{
		{"20k rows at 1%", 0.01, false, false},
		{"20k rows at 8% with sentinels", 0.08, false, true},
		{"20k rows at 1% with runs", 0.01, true, false},
	} {
		base := randSeq(rng, 20000)
		tenant, pairs := editScript(rng, base, tc.rate, tc.runs)
		if tc.sentinels {
			// Turn two copied rows into a deleted base sentinel and an
			// inserted tenant sentinel, the escaped characters.
			bp, tp := pairs[5000], pairs[15000]
			base[bp[0]], tenant[tp[1]] = alphabet.Sentinel, alphabet.Sentinel
			pairs = slices.DeleteFunc(pairs, func(p [2]int) bool { return p == bp || p == tp })
		}
		checkDelta(t, tc.name, base, tenant, pairs)
	}
}

// checkDelta builds the delta of an alignment with the Builder and
// compares every query with naive counts over the alignment.
func checkDelta(t *testing.T, name string, base, tenant []byte, pairs [][2]int) {
	t.Helper()
	b := NewBuilder(base, tenant)
	baseOf := make([]int, len(tenant)) // base row of each common tenant row, -1 for insertions
	kept := make([]bool, len(base))
	for i := range baseOf {
		baseOf[i] = -1
	}
	for _, p := range pairs {
		b.Match(p[0], p[1])
		baseOf[p[1]], kept[p[0]] = p[0], true
	}
	d := b.Finish()
	if d.TenantRows() != len(tenant) || d.BaseRows() != len(base) {
		t.Fatalf("%s: rows %dx%d, want %dx%d", name, d.TenantRows(), d.BaseRows(), len(tenant), len(base))
	}

	// Naive prefix counts: per-base occurrences in the tenant, the base,
	// the insertion characters and the deleted characters.
	prefix := func(seq []byte) [][4]int32 {
		out := make([][4]int32, len(seq)+1)
		for i, ch := range seq {
			out[i+1] = out[i]
			if ch != alphabet.Sentinel {
				out[i+1][ch-1]++
			}
		}
		return out
	}
	var insChars, delChars []byte
	insBefore := make([]int32, len(tenant)+1) // insertion rows before tenant row i
	for i, ch := range tenant {
		insBefore[i+1] = insBefore[i]
		if baseOf[i] < 0 {
			insChars = append(insChars, ch)
			insBefore[i+1]++
		}
	}
	var keptAt []int32 // base row of each kept row, in order
	for bi, ch := range base {
		if kept[bi] {
			keptAt = append(keptAt, int32(bi))
		} else {
			delChars = append(delChars, ch)
		}
	}
	tenOcc, baseOcc, insOcc, delOcc := prefix(tenant), prefix(base), prefix(insChars), prefix(delChars)
	if d.InsLen() != len(insChars) || d.DelLen() != len(delChars) {
		t.Fatalf("%s: %d insertions and %d deletions, want %d and %d",
			name, d.InsLen(), d.DelLen(), len(insChars), len(delChars))
	}
	split := func(i int) (tIns, j, jDel int32) {
		tIns = insBefore[i]
		cs := int32(i) - tIns
		if cs > 0 {
			j = keptAt[cs-1] + 1
		}
		return tIns, j, j - cs
	}

	for s, e := range d.dir {
		if wt, wj, _ := split(s * dirRows); int32(e.t) != wt || int32(e.j) != wj {
			t.Fatalf("%s: split directory entry %d = (%d, %d), want (%d, %d)", name, s, e.t, e.j, wt, wj)
		}
	}
	if len(d.dir) != len(tenant)/dirRows+1 {
		t.Fatalf("%s: %d split directory entries for %d rows", name, len(d.dir), len(tenant))
	}
	for i := 0; i <= len(tenant); i++ {
		tIns, j, jDel := d.Split(int32(i))
		wt, wj, wd := split(i)
		if tIns != wt || j != wj || jDel != wd {
			t.Fatalf("%s: Split(%d) = (%d, %d, %d), want (%d, %d, %d)", name, i, tIns, j, jDel, wt, wj, wd)
		}
		if i < len(tenant) {
			if want := baseOf[i]; want < 0 {
				if !d.IsIns(int32(i)) || d.InsChar(tIns) != tenant[i] {
					t.Fatalf("%s: insertion row %d reads %d, want %d", name, i, d.InsChar(tIns), tenant[i])
				}
			} else if d.IsIns(int32(i)) || d.BaseRow(int32(i)) != int32(want) || d.KeptFrom(j) != int32(want) {
				t.Fatalf("%s: common row %d: BaseRow %d, KeptFrom %d, want base row %d",
					name, i, d.BaseRow(int32(i)), d.KeptFrom(j), want)
			}
		}
		insAll, delAll := d.OccInsAll(tIns), d.OccDelAll(jDel)
		for x := byte(1); x <= 4; x++ {
			if got, want := d.OccIns(x, tIns), insOcc[tIns][x-1]; got != want || insAll[x-1] != want {
				t.Fatalf("%s: OccIns(%d, %d) = %d, OccInsAll %d, want %d", name, x, tIns, got, insAll[x-1], want)
			}
			if got, want := d.OccDel(x, jDel), delOcc[jDel][x-1]; got != want || delAll[x-1] != want {
				t.Fatalf("%s: OccDel(%d, %d) = %d, OccDelAll %d, want %d", name, x, jDel, got, delAll[x-1], want)
			}
			if got, want := baseOcc[j][x-1]-d.OccDel(x, jDel)+d.OccIns(x, tIns), tenOcc[i][x-1]; got != want {
				t.Fatalf("%s: bridged occ(%d, %d) = %d, want %d", name, x, i, got, want)
			}
		}
		for h := i; h <= min(len(tenant), i+64); h++ {
			tIns2, j2, jDel2 := d.SplitFrom(int32(i), int32(h), tIns, j)
			wt, wj, wd := split(h)
			if tIns2 != wt || j2 != wj || jDel2 != wd {
				t.Fatalf("%s: SplitFrom(%d, %d) = (%d, %d, %d), want Split(%d) = (%d, %d, %d)",
					name, i, h, tIns2, j2, jDel2, h, wt, wj, wd)
			}
			var ins, del [4]int32
			d.InsCountAll(tIns, tIns2, &ins)
			d.DelCountAll(jDel, jDel2, &del)
			for x := range ins {
				if ins[x] != insOcc[tIns2][x]-insOcc[tIns][x] || del[x] != delOcc[jDel2][x]-delOcc[jDel][x] {
					t.Fatalf("%s: range counts over rows [%d, %d): ins %v del %v", name, i, h, ins, del)
				}
			}
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := randSeq(rng, 600)
	tenant := mutate(rng, base, 0.05)
	d := buildDelta(base, tenant)

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	got, err := ReadDelta(&buf, len(tenant), len(base))
	if err != nil {
		t.Fatal(err)
	}
	if got.InsLen() != d.InsLen() || got.DelLen() != d.DelLen() {
		t.Fatal("exception set sizes differ after round trip")
	}
	for i := int32(0); i < int32(d.InsLen()); i++ {
		if got.InsChar(i) != d.InsChar(i) {
			t.Fatalf("insertion char %d differs after round trip", i)
		}
	}
	for i := int32(0); i < int32(d.DelLen()); i++ {
		if got.DelChar(i) != d.DelChar(i) {
			t.Fatalf("deletion char %d differs after round trip", i)
		}
	}
	for i := int32(0); i <= int32(len(tenant)); i += 7 {
		a1, b1, c1 := d.Split(i)
		a2, b2, c2 := got.Split(i)
		if a1 != a2 || b1 != b2 || c1 != c2 {
			t.Fatalf("Split(%d) differs after round trip", i)
		}
	}

	// Wrong expected geometry must be rejected.
	if _, err := ReadDelta(bytes.NewReader(saved), len(tenant)+1, len(base)); err == nil {
		t.Fatal("mismatched tenant rows accepted")
	}
	// Truncations and bit flips must error, not panic.
	for cut := 0; cut < len(saved); cut += 13 {
		if _, err := ReadDelta(bytes.NewReader(saved[:cut]), len(tenant), len(base)); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for pos := 16; pos < len(saved); pos += 31 {
		mut := append([]byte(nil), saved...)
		mut[pos] ^= 0x80
		// May legitimately still parse if the flip hits a char payload
		// bit that stays a valid rank; just must not panic.
		_, _ = ReadDelta(bytes.NewReader(mut), len(tenant), len(base))
	}
}

func TestDeltaSizeAndCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randSeq(rng, 1000)
	tenant := mutate(rng, base, 0.02)
	d := buildDelta(base, tenant)
	if d.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not positive")
	}
	// ~2% edits: the delta must be far below a standalone payload.
	if d.SizeBytes() > len(tenant) {
		t.Fatalf("delta %d bytes for %d rows at 2%% divergence", d.SizeBytes(), len(tenant))
	}
	d.NoteBaseRead()
	d.NoteBaseRead()
	d.NoteInsRead()
	if b, i := d.Reads(); b != 2 || i != 1 {
		t.Fatalf("Reads = (%d, %d), want (2, 1)", b, i)
	}
}
