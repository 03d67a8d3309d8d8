package fmindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bwtmatch/internal/alphabet"
)

// legacyStream serializes idx in the encodings earlier writers emitted
// besides today's: the BWT one byte per character (bytePayload), and a
// two-level checkpoint directory in place of the flat table (twoLevel):
// absolute 32-bit counts every 256 positions and 8-bit counts every 16
// since the enclosing 256, each table with one trailing zero row. With
// neither flag set it is WriteTo's encoding.
func legacyStream(t testing.TB, idx *Index, bytePayload, twoLevel bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(v any) error { return binary.Write(&buf, binary.LittleEndian, v) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	layout := layoutPacked
	if bytePayload {
		layout = layoutByte
	}
	must(firstErr(put(indexMagic), put(uint32(idx.opts.OccRate)), put(uint32(idx.opts.SARate)),
		put(layout), put(uint64(idx.n)), put(idx.sentPos)))
	bwt := idx.BWT()
	if bytePayload {
		buf.Write(bwt)
	} else {
		must(firstErr(put(idx.bwt.sentPos), put(uint64(len(idx.bwt.words))), put(idx.bwt.words)))
	}
	must(put(idx.c[:]))
	if twoLevel {
		super := make([]uint32, (len(bwt)/256+2)*alphabet.Bases)
		block := make([]uint8, (len(bwt)/16+2)*alphabet.Bases)
		var abs [alphabet.Bases]uint32
		var rel [alphabet.Bases]uint8
		for p := 0; p <= len(bwt); p++ {
			if p%256 == 0 {
				copy(super[p/256*alphabet.Bases:], abs[:])
				rel = [alphabet.Bases]uint8{}
			}
			if p%16 == 0 {
				copy(block[p/16*alphabet.Bases:], rel[:])
			}
			if p < len(bwt) && bwt[p] != alphabet.Sentinel {
				abs[bwt[p]-1]++
				rel[bwt[p]-1]++
			}
		}
		must(firstErr(put(occTwoLevel), put(uint64(len(super))), put(super),
			put(uint64(len(block))), put(block)))
	} else {
		must(firstErr(put(occFlat), put(uint64(len(idx.occ))), put(idx.occ)))
	}
	must(idx.writeSASamples(put))
	return buf.Bytes()
}

func serialized(t testing.TB, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLegacyStreamMatchesWriter pins legacyStream to the writer: with
// neither legacy encoding selected it must produce WriteTo's bytes, so
// the encodings the other tests feed the reader differ from today's
// only where they mean to.
func TestLegacyStreamMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(240))
	for _, rate := range []int{4, 32, 7} {
		idx, err := Build(randomRanks(rng, 700), Options{OccRate: rate, SARate: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacyStream(t, idx, false, false), serialized(t, idx)) {
			t.Fatalf("rate %d: legacyStream differs from WriteTo", rate)
		}
	}
}

// TestTwoLevelSerializeRoundTrip reads streams carrying a two-level
// checkpoint directory, with either BWT payload. The reader skips the
// directory and rebuilds flat checkpoints at DefaultOccRate, so the
// loaded index must re-serialize to exactly the stream of a fresh
// default-rate build of the same text.
func TestTwoLevelSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(243))
	for _, n := range []int{1, 15, 16, 255, 256, 257, 900, 3000} {
		text := randomRanks(rng, n)
		idx, err := Build(text, Options{OccRate: 4, SARate: 8})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(text, Options{SARate: 8})
		if err != nil {
			t.Fatal(err)
		}
		want := serialized(t, fresh)
		for _, bytePayload := range []bool{false, true} {
			got, err := ReadIndex(bytes.NewReader(legacyStream(t, idx, bytePayload, true)))
			if err != nil {
				t.Fatalf("n=%d byte=%v: %v", n, bytePayload, err)
			}
			if got.Options().OccRate != DefaultOccRate {
				t.Fatalf("n=%d byte=%v: OccRate %d after conversion", n, bytePayload, got.Options().OccRate)
			}
			if !bytes.Equal(serialized(t, got), want) {
				t.Fatalf("n=%d byte=%v: converted index differs from a fresh build", n, bytePayload)
			}
		}
	}
}

// TestTwoLevelQuick checks Count on indexes converted from two-level
// streams against a naive scan over random texts, tiny ones included.
func TestTwoLevelQuick(t *testing.T) {
	f := func(seed int64, n16 uint16, m8 uint8, bytePayload bool) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randomRanks(rng, 1+int(n16)%1500)
		pat := randomRanks(rng, 1+int(m8)%10)
		idx, err := Build(text, Options{SARate: 4})
		if err != nil {
			return false
		}
		got, err := ReadIndex(bytes.NewReader(legacyStream(t, idx, bytePayload, true)))
		if err != nil {
			return false
		}
		return got.Count(pat) == naiveCount(text, pat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestByteBWTLoads reads streams whose BWT is stored one byte per
// character. A valid one is packed on load and re-serializes to the
// writer's stream for the same index; a payload packing could not
// represent — a junk value, a second sentinel, no sentinel at the
// header's position — is rejected with ErrFormat by the byte payload's
// own check, before packing could mask it.
func TestByteBWTLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(245))
	idx, err := Build(randomRanks(rng, 500), Options{OccRate: 4, SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	stream := legacyStream(t, idx, true, false)
	got, err := ReadIndex(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialized(t, got), serialized(t, idx)) {
		t.Fatal("byte payload loads to a different index")
	}

	const payloadAt = 25 // magic, two rates, layout, n, sentPos
	sent := int(idx.sentPos)
	other := (sent + 1) % (idx.n + 1)
	for _, tc := range []struct {
		name, reason string
		damage       func(bwt []byte)
	}{
		{"junk value", "bwt value", func(bwt []byte) { bwt[other] = alphabet.Size }},
		{"stray sentinel", "sentinel expected", func(bwt []byte) { bwt[other] = alphabet.Sentinel }},
		{"no sentinel", "sentinel expected", func(bwt []byte) { bwt[sent] = alphabet.A }},
	} {
		bad := append([]byte(nil), stream...)
		tc.damage(bad[payloadAt : payloadAt+idx.n+1])
		_, err := ReadIndex(bytes.NewReader(bad))
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: error = %v, want ErrFormat naming %q", tc.name, err, tc.reason)
		}
	}
}

// TestTwoLevelLengthCapped checks that the skipped two-level tables'
// lengths are still capped: a length past maxLen is rejected as such,
// before the reader tries to skip that many entries.
func TestTwoLevelLengthCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(246))
	idx, err := Build(randomRanks(rng, 300), Options{SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	stream := legacyStream(t, idx, false, true)
	at := 25 + 12 + 8*len(idx.bwt.words) + 4*len(idx.c) + 1 // superblock length
	binary.LittleEndian.PutUint64(stream[at:], maxLen+1)
	_, err = ReadIndex(bytes.NewReader(stream))
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "two-level length") {
		t.Fatalf("error = %v, want ErrFormat naming the two-level length", err)
	}
}
