package fmindex

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bwtmatch/internal/alphabet"
)

func roundTrip(t *testing.T, idx *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 20; trial++ {
		text := randomRanks(rng, 50+rng.Intn(800))
		idx, err := Build(text, Options{OccRate: 1 + rng.Intn(64), SARate: 1 + rng.Intn(16)})
		if err != nil {
			t.Fatal(err)
		}
		got := roundTrip(t, idx)
		if !bytes.Equal(got.BWT(), idx.BWT()) {
			t.Fatal("BWT differs after round trip")
		}
		if got.N() != idx.N() || got.Options() != idx.Options() {
			t.Fatalf("metadata differs: %+v vs %+v", got.Options(), idx.Options())
		}
		for q := 0; q < 30; q++ {
			pat := randomRanks(rng, 1+rng.Intn(10))
			a := mustLocate(t, idx, idx.Search(pat))
			b := mustLocate(t, got, got.Search(pat))
			if len(a) != len(b) {
				t.Fatalf("Locate count differs after round trip")
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("Locate differs: %v vs %v", a, b)
				}
			}
		}
	}
}

// TestSerializeRejectsSentinelSlotCode stores a nonzero code in the
// packed BWT's sentinel slot. get() reads the sentinel there whatever
// the slot holds, so the census and checkpoint recount cannot see it,
// but count and countAll discount exactly one 'a' at that slot: the
// loader must reject the payload, not answer ranks off by one.
func TestSerializeRejectsSentinelSlotCode(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	idx, err := Build(randomRanks(rng, 3000), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := idx.bwt.sentPos
	idx.bwt.words[s/alphabet.CodesPerWord] |= 3 << uint((s%alphabet.CodesPerWord)*2)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if !errors.Is(err, ErrFormat) || got != nil {
		t.Fatalf("ReadIndex = (%v, %v), want ErrFormat", got, err)
	}
}

func TestSerializeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for _, c := range cases {
		if _, err := ReadIndex(bytes.NewReader(c)); !errors.Is(err, ErrFormat) {
			t.Errorf("ReadIndex(%d bytes) error = %v, want ErrFormat", len(c), err)
		}
	}
}

func TestSerializeRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	idx, _ := Build(randomRanks(rng, 300), DefaultOptions())
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 8, 20, len(full) / 2, len(full) - 1} {
		if _, err := ReadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestSerializeRejectsSampleGap pins the loader's Locate bound: an
// index whose sampled positions lie further apart than its SA rate
// would let a Locate walk run past SARate-1 steps, so it does not load.
// Here the samples sit every 8 positions under a header rate of 4, and
// then every 4 positions with position 0's sample lost.
func TestSerializeRejectsSampleGap(t *testing.T) {
	text := randomRanks(rand.New(rand.NewSource(143)), 300)
	sparse, err := Build(text, Options{SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	sparse.opts.SARate = 4
	dense, err := Build(text, Options{SARate: 4})
	if err != nil {
		t.Fatal(err)
	}
	pos := mustLocate(t, dense, Interval{Lo: 0, Hi: int32(dense.n + 1)})
	for _, c := range []struct {
		idx  *Index
		want string
	}{
		{sparse, "more than SA rate 4 apart"},
		{dense.WithoutSample(int32(slices.Index(pos, 0))), "position 0 is not sampled"},
	} {
		var buf bytes.Buffer
		if _, err := c.idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIndex(&buf); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadIndex err %v, want ErrFormat for %q", err, c.want)
		}
	}
}

// TestReadIndexReversedChecksText pins the loader's text check: an
// index over the reverse of a text loads beside that text, and not
// beside a text one base away from it or of another length.
func TestReadIndexReversedChecksText(t *testing.T) {
	text := randomRanks(rand.New(rand.NewSource(144)), 700)
	idx, err := Build(alphabet.Reverse(slices.Clone(text)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	pack := func(ranks []byte) *alphabet.Packed {
		p, err := alphabet.Pack(ranks)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := ReadIndexReversed(bytes.NewReader(stream), pack(text)); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, 320, len(text) - 1} {
		flipped := slices.Clone(text)
		flipped[at] = flipped[at]%alphabet.Bases + 1
		want := fmt.Sprintf("text base %d is ", at)
		if _, err := ReadIndexReversed(bytes.NewReader(stream), pack(flipped)); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), want) {
			t.Errorf("base %d flipped: err %v, want ErrFormat for %q", at, err, want)
		}
	}
	if _, err := ReadIndexReversed(bytes.NewReader(stream), pack(text[1:])); !errors.Is(err, ErrFormat) {
		t.Errorf("shorter text: err %v, want ErrFormat", err)
	}
}
