package bwtmatch

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeInPieces feeds seq to the builder in ragged chunks so shard
// boundaries land mid-Write.
func writeInPieces(t *testing.T, b *StreamBuilder, rng *rand.Rand, seq []byte) {
	t.Helper()
	for len(seq) > 0 {
		n := 1 + rng.Intn(257)
		if n > len(seq) {
			n = len(seq)
		}
		if _, err := b.Write(seq[:n]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		seq = seq[n:]
	}
}

// TestStreamBuilderByteIdentical checks the satellite contract: a
// streaming build produces byte-for-byte the file an in-memory
// NewShardedRefs + Save produces, across shard-boundary edge cases and
// FM-index layouts.
func TestStreamBuilderByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	const shardSize, maxPat = 512, 33 // overlap 32
	layouts := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"packed-twolevel", []Option{WithPackedBWT(), WithTwoLevelOcc(), WithSARate(8)}},
		{"workers", []Option{WithBuildWorkers(3)}},
	}
	totals := []int{1, shardSize - 1, shardSize, shardSize + 1,
		2 * shardSize, 2*shardSize + maxPat - 1, 7777}
	for _, lay := range layouts {
		for _, total := range totals {
			opts := append([]Option{WithShardSize(shardSize), WithMaxPatternLen(maxPat)}, lay.opts...)
			seq := randomDNA(rng, total)

			mono, err := NewSharded(seq, opts...)
			if err != nil {
				t.Fatalf("%s/%d: NewSharded: %v", lay.name, total, err)
			}
			var want bytes.Buffer
			if err := mono.Save(&want); err != nil {
				t.Fatalf("%s/%d: Save: %v", lay.name, total, err)
			}

			path := filepath.Join(dir, "stream.idx")
			sb, err := NewStreamBuilder(path, opts...)
			if err != nil {
				t.Fatalf("%s/%d: NewStreamBuilder: %v", lay.name, total, err)
			}
			writeInPieces(t, sb, rng, seq)
			if err := sb.Close(); err != nil {
				t.Fatalf("%s/%d: Close: %v", lay.name, total, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s/%d: streaming container differs from in-memory Save (%d vs %d bytes)",
					lay.name, total, len(got), want.Len())
			}
		}
	}
}

// TestStreamBuilderRefsByteIdentical is the multi-reference variant:
// StartRef must reproduce the NewShardedRefs reference table exactly,
// placeholder names included.
func TestStreamBuilderRefsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dir := t.TempDir()
	refs := []Reference{
		{Name: "chr1", Seq: randomDNA(rng, 3000)},
		{Name: "", Seq: randomDNA(rng, 517)}, // placeholder-named
		{Name: "chrM", Seq: randomDNA(rng, 1234)},
	}
	opts := []Option{WithShardSize(700), WithMaxPatternLen(65)}

	mono, err := NewShardedRefs(refs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := mono.Save(&want); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "refs.idx")
	sb, err := NewStreamBuilder(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		sb.StartRef(r.Name)
		writeInPieces(t, sb, rng, r.Seq)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streaming refs container differs from in-memory Save (%d vs %d bytes)", len(got), want.Len())
	}

	// And it loads and searches like the in-memory one.
	x, err := LoadShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	pat := refs[0].Seq[100:140]
	gotM, err := Search(x, pat, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := Search(mono, pat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotM) == 0 || len(gotM) != len(wantM) {
		t.Fatalf("stream-built search returned %d matches, in-memory %d", len(gotM), len(wantM))
	}
}

// TestStreamBuilderErrors pins the failure modes: missing WithShardSize,
// empty input, empty reference, invalid bytes (sticky), write after
// Close.
func TestStreamBuilderErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.idx")

	if _, err := NewStreamBuilder(path); !errors.Is(err, ErrInput) {
		t.Fatalf("no shard size: err = %v, want ErrInput", err)
	}
	if _, err := NewStreamBuilder(path, WithShards(4)); !errors.Is(err, ErrInput) {
		t.Fatalf("WithShards: err = %v, want ErrInput", err)
	}

	sb, err := NewStreamBuilder(path, WithShardSize(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); !errors.Is(err, ErrInput) {
		t.Fatalf("empty input Close: err = %v, want ErrInput", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed build left a file at the target path")
	}

	sb, err = NewStreamBuilder(path, WithShardSize(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Write([]byte("acgtNNN")); !errors.Is(err, ErrInput) {
		t.Fatalf("invalid byte: err = %v, want ErrInput", err)
	}
	if _, err := sb.Write([]byte("acgt")); !errors.Is(err, ErrInput) {
		t.Fatalf("sticky error: err = %v, want ErrInput", err)
	}
	if err := sb.Close(); !errors.Is(err, ErrInput) {
		t.Fatalf("Close after failed Write: err = %v, want ErrInput", err)
	}

	sb, err = NewStreamBuilder(path, WithShardSize(64))
	if err != nil {
		t.Fatal(err)
	}
	sb.StartRef("a")
	sb.StartRef("b") // "a" closed empty
	if err := sb.Close(); !errors.Is(err, ErrInput) {
		t.Fatalf("empty reference: err = %v, want ErrInput", err)
	}

	sb, err = NewStreamBuilder(path, WithShardSize(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Write([]byte("acgtacgt")); err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Write([]byte("acgt")); !errors.Is(err, ErrInput) {
		t.Fatalf("write after Close: err = %v, want ErrInput", err)
	}

	// No spill temp files left behind in any of the above.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "x.idx" {
			t.Fatalf("leftover temp file %q", e.Name())
		}
	}
}

// TestOpenAppendEquivalence checks the append contract end to end: the
// grown container is byte-identical to a from-scratch build of the full
// target, prior full-extent payloads are copied rather than rebuilt,
// and searches (including ones straddling the old end of input) agree
// with a monolithic index.
func TestOpenAppendEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dir := t.TempDir()
	const shardSize, maxPat = 512, 33
	base := randomDNA(rng, 5000)
	tail := randomDNA(rng, 3000)
	opts := []Option{WithShardSize(shardSize), WithMaxPatternLen(maxPat)}

	// Base container, stream-built.
	path := filepath.Join(dir, "grow.idx")
	sb, err := NewStreamBuilder(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sb.StartRef("base")
	writeInPieces(t, sb, rng, base)
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}

	// Append the tail. Geometry options are omitted: the manifest rules.
	ab, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Len() != len(base) {
		t.Fatalf("OpenAppend resumed at %d bytes, want %d", ab.Len(), len(base))
	}
	ab.StartRef("tail")
	writeInPieces(t, ab, rng, tail)
	if err := ab.Close(); err != nil {
		t.Fatal(err)
	}
	// Old plan: ceil(5000/512) = 10 shards, spans 0..8 full (512+32
	// bytes each), span 9 cut at 5000 — exactly 9 frames copied.
	if got, want := ab.Appended(), 9; got != want {
		t.Fatalf("append copied %d frames, want %d", got, want)
	}

	// From-scratch streaming build of the full target.
	fullPath := filepath.Join(dir, "full.idx")
	fb, err := NewStreamBuilder(fullPath, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fb.StartRef("base")
	writeInPieces(t, fb, rng, base)
	fb.StartRef("tail")
	writeInPieces(t, fb, rng, tail)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(grown, scratch) {
		t.Fatalf("appended container differs from from-scratch rebuild (%d vs %d bytes)", len(grown), len(scratch))
	}

	// Search equivalence against a monolithic index over the full
	// target, with patterns inside the old part, inside the tail, and
	// straddling the old end of input.
	full := append(append([]byte(nil), base...), tail...)
	mono, err := New(full)
	if err != nil {
		t.Fatal(err)
	}
	x, err := LoadShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, at := range []int{0, 1111, len(base) - 16, len(base) - 1, len(base), len(full) - 32} {
		pat := full[at : at+32]
		for k := 0; k <= 2; k++ {
			gotM, err := Search(x, pat, k)
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := Search(mono, pat, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotM) != len(wantM) {
				t.Fatalf("at=%d k=%d: appended index found %d matches, monolithic %d", at, k, len(gotM), len(wantM))
			}
			for i := range gotM {
				if gotM[i] != wantM[i] {
					t.Fatalf("at=%d k=%d: match %d = %+v, want %+v", at, k, i, gotM[i], wantM[i])
				}
			}
		}
	}
}

// TestOpenAppendGeometryValidation: appending with mismatched geometry
// options must fail up front with ErrInput, and appending to a
// monolithic container with ErrFormat.
func TestOpenAppendGeometryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	dir := t.TempDir()
	path := filepath.Join(dir, "geo.idx")
	sb, err := NewStreamBuilder(path, WithShardSize(256), WithMaxPatternLen(17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Write(randomDNA(rng, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenAppend(path, WithShardSize(512)); !errors.Is(err, ErrInput) {
		t.Fatalf("mismatched shard size: err = %v, want ErrInput", err)
	}
	if _, err := OpenAppend(path, WithMaxPatternLen(64)); !errors.Is(err, ErrInput) {
		t.Fatalf("mismatched max pattern length: err = %v, want ErrInput", err)
	}
	if _, err := OpenAppend(path, WithShards(4)); !errors.Is(err, ErrInput) {
		t.Fatalf("WithShards: err = %v, want ErrInput", err)
	}
	// Matching explicit geometry is fine.
	ab, err := OpenAppend(path, WithShardSize(256), WithMaxPatternLen(17))
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Abort(); err != nil {
		t.Fatal(err)
	}

	monoPath := filepath.Join(dir, "mono.idx")
	idx, err := New(randomDNA(rng, 500))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveFile(monoPath); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppend(monoPath); !errors.Is(err, ErrFormat) {
		t.Fatalf("append to monolithic file: err = %v, want ErrFormat", err)
	}
}

// TestShardedTruncatedMidFlush: a container cut off mid-frame — the
// on-disk state a crash during a (hypothetical) in-place flush would
// leave — must be rejected with ErrFormat at every truncation point.
func TestShardedTruncatedMidFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.idx")
	sb, err := NewStreamBuilder(path, WithShardSize(256), WithMaxPatternLen(17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Write(randomDNA(rng, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cutPath := filepath.Join(dir, "cut.idx")
	for _, cut := range []int{2, 9, 40, len(whole) / 2, len(whole) - 200, len(whole) - 1} {
		if err := os.WriteFile(cutPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadShardedFile(cutPath); !errors.Is(err, ErrFormat) {
			t.Fatalf("truncated at %d/%d: err = %v, want ErrFormat", cut, len(whole), err)
		}
		if _, err := OpenAppend(cutPath); !errors.Is(err, ErrFormat) {
			t.Fatalf("append to truncation at %d: err = %v, want ErrFormat", cut, err)
		}
	}
	// Trailing garbage is just as dead.
	if err := os.WriteFile(cutPath, append(append([]byte(nil), whole...), 0xEE), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedFile(cutPath); !errors.Is(err, ErrFormat) {
		t.Fatalf("trailing byte: err = %v, want ErrFormat", err)
	}
}
