package bwtmatch

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/naive"
)

// legacyFixtures are indexes saved by an earlier writer, one per rank
// layout it offered (testdata/README.md): the BWT one byte per
// character or at 2 bits, under a flat checkpoint table or a two-level
// directory.
var legacyFixtures = []string{
	"legacy_byte_rate4.idx",
	"legacy_byte_twolevel.idx",
	"legacy_packed_rate64.idx",
	"legacy_packed_twolevel.idx",
}

// fixtureCodes returns the BWT payload code (0 byte, 1 packed) and the
// checkpoint section code (0 flat, 1 two-level) of a saved index with
// an empty reference table, plus its stored rankall spacing.
func fixtureCodes(t *testing.T, data []byte) (payload, occ uint8, rate uint32) {
	t.Helper()
	le := binary.LittleEndian
	at := 4 + 8                           // container magic, text length
	at += 8 + 8*int(le.Uint64(data[at:])) // packed text
	if refs := le.Uint32(data[at:]); refs != 0 {
		t.Fatalf("fixture has %d references, want none", refs)
	}
	at += 4
	rate = le.Uint32(data[at+4:])
	payload = data[at+12]
	n := int(le.Uint64(data[at+13:]))
	at += 25 // index magic, two rates, payload code, n, sentinel row
	if payload == 0 {
		at += n + 1
	} else {
		at += 4 + 8 + 8*int(le.Uint64(data[at+4:]))
	}
	at += 4 * (alphabet.Size + 1) // C array
	return payload, data[at], rate
}

// TestLegacyFixturesLoad loads each legacy fixture with LoadFile and
// requires the searches of a fresh build: exactly the naive oracle's
// matches. It first checks each file's payload and section codes, so a
// fixture rewritten by today's writer (always packed and flat) fails
// here instead of passing without exercising the conversion.
func TestLegacyFixturesLoad(t *testing.T) {
	target := randomDNA(rand.New(rand.NewSource(16)), 1200) // the fixtures' target
	text, _ := alphabet.Encode(target)
	for i, name := range legacyFixtures {
		wantPayload, wantOcc := uint8(i/2), uint8(i%2)
		path := filepath.Join("testdata", name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payload, occ, rate := fixtureCodes(t, data)
		if payload != wantPayload || occ != wantOcc {
			t.Fatalf("%s: payload code %d and section code %d, want %d and %d",
				name, payload, occ, wantPayload, wantOcc)
		}
		x, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(x.text.Unpack(), text) {
			t.Fatalf("%s: loaded a different target", name)
		}
		wantRate := int(rate)
		if occ == 1 {
			wantRate = fmindex.DefaultOccRate
		}
		if got := x.searcher.Index().Options().OccRate; got != wantRate {
			t.Fatalf("%s: OccRate %d after load, want %d", name, got, wantRate)
		}
		rng := rand.New(rand.NewSource(17))
		for q := 0; q < 40; q++ {
			m, k := 8+rng.Intn(20), rng.Intn(4)
			p := rng.Intn(len(target) - m)
			pattern := append([]byte(nil), target[p:p+m]...)
			for f := 0; f < k; f++ {
				pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
			}
			pr, _ := alphabet.Encode(pattern)
			var want []Match
			for _, pos := range naive.Find(text, pr, k) {
				want = append(want, Match{Pos: int(pos), Mismatches: naive.Hamming(text[pos:int(pos)+m], pr, m)})
			}
			for _, method := range bwtMethods {
				got, _, err := SearchMethod(x, pattern, k, method)
				if err != nil {
					t.Fatalf("%s %v: %v", name, method, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s %v (m=%d k=%d): got %v, want %v", name, method, m, k, got, want)
				}
			}
		}
	}
}

// TestFixturesResave loads every saved index under testdata/ and saves
// it again. The text payload must come back byte for byte: the loader
// keeps the packed words it read. The files in today's encoding come
// back whole; the loader converts the older BWT and checkpoint
// encodings, so those sections of the other fixtures change.
// (TestRelativeFixtureLoad re-saves the tenant container.)
func TestFixturesResave(t *testing.T) {
	current := map[string]bool{"legacy_packed_rate64.idx": true, "relative_base.idx": true}
	for _, name := range append(slices.Clone(legacyFixtures), "relative_base.idx") {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		head := 20 + idx.text.SizeBytes() // magic, length, word count, words
		if !bytes.Equal(buf.Bytes()[:head], data[:head]) {
			t.Errorf("%s: text payload re-saves differently", name)
		}
		if current[name] && !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("%s: does not re-save byte-identically", name)
		}
	}
}
