//go:build kminvariants

package fmindex

import (
	"bytes"
	"fmt"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/wavelet"
)

// InvariantsEnabled reports whether this build carries the deep
// invariant checks (the kminvariants build tag).
const InvariantsEnabled = true

// CheckInvariants runs the full structural verification of the index
// (the load-time verifyLoad gate: census, C prefix sums, occ recount,
// single-cycle LF walk certifying every SA sample) and then
// cross-checks the specialized DNA rankall tables against an
// independently built wavelet tree over the same BWT — the general
// rank structure the paper's layout replaces. A rank-only index has no
// samples to check. O(n log sigma); tests and fuzz harnesses only,
// no-op in default builds.
func (idx *Index) CheckInvariants() error {
	if idx.saMarked != nil {
		if len(idx.saSamples) != idx.saMarked.Ones() {
			return fmt.Errorf("fmindex: %d SA samples for %d marked rows",
				len(idx.saSamples), idx.saMarked.Ones())
		}
		if err := idx.saMarked.CheckInvariants(); err != nil {
			return fmt.Errorf("fmindex: SA mark bitvector: %w", err)
		}
	}
	if d := idx.rel; d != nil {
		if err := d.CheckInvariants(); err != nil {
			return fmt.Errorf("fmindex: %w", err)
		}
	}
	if err := idx.verifyLoad(nil); err != nil {
		return fmt.Errorf("fmindex: %w", err)
	}

	// Rankall cross-check: occAt and occAll against wavelet ranks over
	// the same BWT, at sampled prefixes (always including the ends).
	bwt := idx.BWT()
	wt, err := wavelet.New(bwt, alphabet.Size)
	if err != nil {
		return fmt.Errorf("fmindex: building cross-check wavelet tree: %w", err)
	}
	if err := wt.CheckAgainst(bwt); err != nil {
		return fmt.Errorf("fmindex: cross-check wavelet tree: %w", err)
	}
	rows := idx.n + 1
	stride := 1
	if rows > 2048 {
		stride = rows / 2048
	}
	for p := 0; p <= rows; p++ {
		if p%stride != 0 && p != rows {
			continue
		}
		var all [alphabet.Bases]int32
		idx.occAll(int32(p), &all)
		for x := byte(alphabet.A); x <= alphabet.T; x++ {
			want := int32(wt.Rank(x, p))
			if got := idx.occAt(x, int32(p)); got != want {
				return fmt.Errorf("fmindex: occAt(%d, %d) = %d, wavelet rank %d", x, p, got, want)
			}
			if all[x-1] != want {
				return fmt.Errorf("fmindex: occAll(%d)[%d] = %d, wavelet rank %d", p, x-1, all[x-1], want)
			}
		}
	}

	// StepAll must agree with four independent Step calls.
	for _, iv := range []Interval{
		idx.Full(),
		{0, int32(rows / 2)},
		{int32(rows / 4), int32(3 * rows / 4)},
		{int32(rows - 1), int32(rows)},
	} {
		if iv.Empty() {
			continue
		}
		var out [alphabet.Bases]Interval
		idx.StepAll(iv, &out)
		for x := byte(alphabet.A); x <= alphabet.T; x++ {
			if got, want := out[x-1], idx.Step(x, iv); got != want {
				return fmt.Errorf("fmindex: StepAll(%v)[%d] = %v, Step %v", iv, x, got, want)
			}
		}
	}
	return nil
}

// CheckAgainstText verifies the index against the original rank-encoded
// text: the LF walk from the sentinel row must reconstruct the text
// exactly, and sampled Search+Locate probes must find every sampled
// substring at its true position. Tests and fuzz harnesses only; no-op
// in default builds.
func (idx *Index) CheckAgainstText(text []byte) error {
	if len(text) != idx.n {
		return fmt.Errorf("fmindex: text length %d, index built over %d", len(text), idx.n)
	}
	// Row 0 holds the bare-sentinel suffix; walking LF yields the text
	// characters last to first (bwtAt(row) is the character preceding
	// the row's suffix).
	out := make([]byte, idx.n)
	row := int32(0)
	for p := idx.n - 1; p >= 0; p-- {
		ch := idx.bwtAt(row)
		if ch == alphabet.Sentinel {
			return fmt.Errorf("fmindex: LF reconstruction hit the sentinel at text position %d", p)
		}
		out[p] = ch
		row = idx.lfStep(row)
	}
	if idx.bwtAt(row) != alphabet.Sentinel {
		return fmt.Errorf("fmindex: LF reconstruction did not end at the sentinel row")
	}
	if !bytes.Equal(out, text) {
		for i := range out {
			if out[i] != text[i] {
				return fmt.Errorf("fmindex: reconstructed text differs at %d: %d != %d", i, out[i], text[i])
			}
		}
	}

	// Search+Locate probes: every occurrence reported for a sampled
	// substring must really match, and the true position must be among
	// them.
	probe := func(pos, length int) error {
		pat := text[pos : pos+length]
		iv := idx.Search(pat)
		locs, err := idx.Locate(iv, nil)
		if err != nil {
			return err
		}
		if len(locs) != iv.Len() {
			return fmt.Errorf("fmindex: Locate yielded %d positions for %d rows", len(locs), iv.Len())
		}
		found := false
		for _, q := range locs {
			if q < 0 || int(q)+length > idx.n {
				return fmt.Errorf("fmindex: Locate position %d out of range for length %d", q, length)
			}
			if !bytes.Equal(text[q:int(q)+length], pat) {
				return fmt.Errorf("fmindex: Locate position %d does not match the probe at %d", q, pos)
			}
			if int(q) == pos {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("fmindex: true occurrence at %d missing from Locate (%d hits)", pos, len(locs))
		}
		return nil
	}
	for _, length := range []int{1, 8, 24} {
		if length > idx.n {
			continue
		}
		step := (idx.n - length + 1) / 16
		if step < 1 {
			step = 1
		}
		for pos := 0; pos+length <= idx.n; pos += step {
			if err := probe(pos, length); err != nil {
				return err
			}
		}
	}
	return nil
}
