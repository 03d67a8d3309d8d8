package alphabet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRankRoundTrip(t *testing.T) {
	for _, b := range []byte("$acgt") {
		r, err := Rank(b)
		if err != nil {
			t.Fatalf("Rank(%q): %v", b, err)
		}
		if got := Byte(r); got != b {
			t.Errorf("Byte(Rank(%q)) = %q", b, got)
		}
	}
}

func TestRankUpperCase(t *testing.T) {
	for i, b := range []byte("ACGT") {
		r, err := Rank(b)
		if err != nil {
			t.Fatalf("Rank(%q): %v", b, err)
		}
		if int(r) != i+1 {
			t.Errorf("Rank(%q) = %d, want %d", b, r, i+1)
		}
	}
}

func TestRankInvalid(t *testing.T) {
	for _, b := range []byte("nNxX 0-") {
		if _, err := Rank(b); !errors.Is(err, ErrInvalidChar) {
			t.Errorf("Rank(%q) error = %v, want ErrInvalidChar", b, err)
		}
	}
}

func TestValidPredicates(t *testing.T) {
	if !Valid('$') || !Valid('a') || Valid('x') {
		t.Error("Valid misbehaved")
	}
	if ValidBase('$') || !ValidBase('T') || ValidBase('n') {
		t.Error("ValidBase misbehaved")
	}
}

func TestOrdering(t *testing.T) {
	// The paper requires $ < a < c < g < t.
	order := []byte{Sentinel, A, C, G, T}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("rank order violated at %d", i)
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	in := []byte("acgtACGT")
	ranks, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("acgtacgt")
	if got := Decode(ranks); !bytes.Equal(got, want) {
		t.Errorf("Decode(Encode(%q)) = %q, want %q", in, got, want)
	}
}

func TestEncodeRejectsSentinel(t *testing.T) {
	if _, err := Encode([]byte("ac$gt")); !errors.Is(err, ErrInvalidChar) {
		t.Errorf("Encode with sentinel: err = %v, want ErrInvalidChar", err)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := Encode([]byte("acNgt")); !errors.Is(err, ErrInvalidChar) {
		t.Errorf("Encode with N: err = %v, want ErrInvalidChar", err)
	}
}

func TestEncodeEmpty(t *testing.T) {
	ranks, err := Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 0 {
		t.Errorf("Encode(nil) = %v, want empty", ranks)
	}
}

func TestSanitize(t *testing.T) {
	clean, replaced := Sanitize([]byte("acNGt$x"))
	if want := []byte("acagtaa"); !bytes.Equal(clean, want) {
		t.Errorf("Sanitize = %q, want %q", clean, want)
	}
	if replaced != 3 {
		t.Errorf("replaced = %d, want 3", replaced)
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{A: T, T: A, C: G, G: C, Sentinel: Sentinel}
	for r, want := range pairs {
		if got := Complement(r); got != want {
			t.Errorf("Complement(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	ranks, _ := Encode([]byte("aacgt"))
	got := Decode(ReverseComplement(ranks))
	if want := []byte("acgtt"); !bytes.Equal(got, want) {
		t.Errorf("ReverseComplement(aacgt) = %q, want %q", got, want)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := make([]byte, int(n))
		for i := range ranks {
			ranks[i] = byte(1 + rng.Intn(4))
		}
		orig := append([]byte(nil), ranks...)
		ReverseComplement(ReverseComplement(ranks))
		return bytes.Equal(orig, ranks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	b := []byte("abcde")
	if got := Reverse(b); !bytes.Equal(got, []byte("edcba")) {
		t.Errorf("Reverse = %q", got)
	}
	var empty []byte
	Reverse(empty) // must not panic
}

func TestPackRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := make([]byte, int(n)%5000)
		for i := range ranks {
			ranks[i] = byte(1 + rng.Intn(4))
		}
		p, err := Pack(ranks)
		if err != nil {
			return false
		}
		if p.Len() != len(ranks) {
			return false
		}
		q, err := FromWords(p.Words(), len(ranks))
		return err == nil && bytes.Equal(p.Unpack(), ranks) && bytes.Equal(q.Unpack(), ranks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPackGet(t *testing.T) {
	ranks, _ := Encode([]byte("acgtacgtacgtacgtacgtacgtacgtacgtacgta"))
	p, err := Pack(ranks)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ranks {
		if got := p.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestFromWordsCanonical accepts only the payload Pack writes: one
// word per 32 bases, rounded up, and zero bits past the last base.
func TestFromWordsCanonical(t *testing.T) {
	ranks, _ := Encode([]byte("acgtacgtacgtacgtacgtacgtacgtacgtacg"))
	p, err := Pack(ranks)
	if err != nil {
		t.Fatal(err)
	}
	words := p.Words()
	if _, err := FromWords(words, len(ranks)); err != nil {
		t.Fatalf("canonical payload rejected: %v", err)
	}
	if _, err := FromWords(append(words[:len(words):len(words)], 0), len(ranks)); err == nil {
		t.Error("payload with an extra word accepted")
	}
	if _, err := FromWords(words[:1], len(ranks)); err == nil {
		t.Error("payload one word short accepted")
	}
	padded := append([]uint64(nil), words...)
	padded[1] |= 1 << 63
	if _, err := FromWords(padded, len(ranks)); err == nil {
		t.Error("payload with nonzero padding accepted")
	}
	if _, err := FromWords(nil, 0); err != nil {
		t.Errorf("empty payload rejected: %v", err)
	}
}

func TestPackRejectsSentinel(t *testing.T) {
	if _, err := Pack([]byte{Sentinel}); err == nil {
		t.Error("Pack(sentinel) succeeded, want error")
	}
}

func TestPackSlice(t *testing.T) {
	ranks, _ := Encode([]byte("acgtgca"))
	p, _ := Pack(ranks)
	got := p.Slice(nil, 2, 5)
	if want := []byte{G, T, G}; !bytes.Equal(got, want) {
		t.Errorf("Slice(2,5) = %v, want %v", got, want)
	}
}

func TestPackSizeBytes(t *testing.T) {
	ranks := make([]byte, 100)
	for i := range ranks {
		ranks[i] = A
	}
	p, _ := Pack(ranks)
	if got := p.SizeBytes(); got != 32 { // ceil(100/32) words * 8 bytes
		t.Errorf("SizeBytes = %d, want 32", got)
	}
}

// TestCountCodes checks both counting kernels against a code-by-code
// count over every range of a packed text that starts in its first
// words, across word boundaries and at ragged ends, with no sentinel
// and with one escaped in a slot holding code 0.
func TestCountCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ranks := make([]byte, 300)
	for i := range ranks {
		ranks[i] = byte(A + rng.Intn(Bases))
	}
	const sent = 100
	ranks[sent] = A // the code 0 an escaped sentinel's slot holds
	p, err := Pack(ranks)
	if err != nil {
		t.Fatal(err)
	}
	for _, sent := range []int32{-1, sent} {
		for from := int32(0); from <= 70; from++ {
			var want [Bases]int32
			for to := from; to <= int32(len(ranks)); to++ {
				if to > from && to-1 != sent {
					want[ranks[to-1]-A]++
				}
				var got [Bases]int32
				CountCodes(p.Words(), from, to, sent, &got)
				if got != want {
					t.Fatalf("sentinel %d: CountCodes(%d, %d) = %v, want %v", sent, from, to, got, want)
				}
				for code := byte(0); code < Bases; code++ {
					if c := CountCode(p.Words(), code, from, to, sent); c != want[code] {
						t.Fatalf("sentinel %d: CountCode(%d, %d, %d) = %d, want %d", sent, code, from, to, c, want[code])
					}
				}
			}
		}
	}
}
