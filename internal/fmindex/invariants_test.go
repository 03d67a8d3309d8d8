package fmindex

import (
	"bytes"
	"math/rand"
	"testing"

	"bwtmatch/internal/alphabet"
)

// invariantLayout is one index configuration under the invariant
// checks: the build options and, when reload is set, the stream
// encoding the index is read back from (see legacyStream).
type invariantLayout struct {
	opts                  Options
	reload                bool
	bytePayload, twoLevel bool
}

// invariantLayouts enumerates the configurations the invariant checks
// must hold for: several checkpoint and sample spacings, and every
// stream encoding the reader accepts.
func invariantLayouts() map[string]invariantLayout {
	return map[string]invariantLayout{
		"default":           {opts: DefaultOptions()},
		"paper":             {opts: Options{OccRate: 4, SARate: 16}},
		"sparse-occ":        {opts: Options{OccRate: 128, SARate: 8}},
		"odd-occ":           {opts: Options{OccRate: 48, SARate: 16}},
		"dense-sa-sampling": {opts: Options{OccRate: 4, SARate: 1}},
		"packed":            {opts: Options{OccRate: 64, SARate: 16}, reload: true},
		"byte":              {opts: Options{OccRate: 4, SARate: 16}, reload: true, bytePayload: true},
		"twolevel":          {opts: Options{SARate: 16}, reload: true, bytePayload: true, twoLevel: true},
		"packed-twolevel":   {opts: Options{SARate: 4}, reload: true, twoLevel: true},
	}
}

// TestCheckInvariantsLayouts exercises the deep index verification,
// including the wavelet-tree rankall cross-check and the text
// round-trip, for every layout. In default builds the checks are
// no-ops; under -tags kminvariants they run in full.
func TestCheckInvariantsLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	text := make([]byte, 2000)
	for i := range text {
		text[i] = byte(alphabet.A + rng.Intn(alphabet.Bases))
	}
	for name, lay := range invariantLayouts() {
		t.Run(name, func(t *testing.T) {
			idx, err := Build(text, lay.opts)
			if err != nil {
				t.Fatal(err)
			}
			if lay.reload {
				stream := legacyStream(t, idx, lay.bytePayload, lay.twoLevel)
				if idx, err = ReadIndex(bytes.NewReader(stream)); err != nil {
					t.Fatal(err)
				}
			}
			if err := idx.CheckInvariants(); err != nil {
				t.Errorf("CheckInvariants: %v", err)
			}
			if err := idx.CheckAgainstText(text); err != nil {
				t.Errorf("CheckAgainstText: %v", err)
			}
		})
	}
}

// TestCheckInvariantsTinyTexts covers degenerate sizes where off-by-one
// bugs in checkpointing and sampling hide.
func TestCheckInvariantsTinyTexts(t *testing.T) {
	for _, text := range [][]byte{
		{alphabet.A},
		{alphabet.T, alphabet.T},
		{alphabet.A, alphabet.C, alphabet.G, alphabet.T},
		{alphabet.G, alphabet.G, alphabet.G, alphabet.G, alphabet.G},
	} {
		idx, err := Build(text, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Errorf("n=%d: %v", len(text), err)
		}
		if err := idx.CheckAgainstText(text); err != nil {
			t.Errorf("n=%d against text: %v", len(text), err)
		}
	}
}
