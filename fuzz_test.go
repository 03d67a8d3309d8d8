package bwtmatch

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/naive"
)

// FuzzSearchMethods cross-checks the four BWT-path methods and Seed
// against the naive oracle on arbitrary byte inputs (sanitized into the
// DNA alphabet): every match position and its mismatch count. The φ
// bound is capped at k+1, so this is the broadest guard on it. A
// three-shard index of each target must return the standalone index's
// matches for the same five methods: the shard overlaps and the owned
// ranges. Each input also builds a relative tenant of the target
// against a base derived from it (fuzzBase), whose four BWT-path
// methods must return the standalone index's matches and work
// counters: the tenant rank bridge under the walk. Run with
// `go test -fuzz=FuzzSearchMethods` for continuous fuzzing; the seed
// corpus runs in ordinary `go test`.
func FuzzSearchMethods(f *testing.F) {
	f.Add([]byte("acagaca"), []byte("tcaca"), byte(2))
	f.Add([]byte("ccacacagaagcc"), []byte("aaaaacaaac"), byte(4))
	f.Add([]byte("aaaaaaaa"), []byte("ttt"), byte(1))
	f.Add([]byte("acgtacgtacgt"), []byte("acgt"), byte(0))
	// A target rich in homopolymers and tandem repeats keeps intervals of
	// 64 rows and more (the memo's structuredMin) tens of characters
	// deep, so the walk also reaches exploreFresh, smallWalk and
	// singletonWalk with no mismatch left to spend.
	repeats := "ttgacc" + strings.Repeat("a", 60) + "c" + strings.Repeat("a", 50) + "gtc" +
		strings.Repeat("ac", 60) + "tga" + strings.Repeat("cag", 30) + "gg" +
		strings.Repeat("a", 40) + "cttag" + strings.Repeat("ac", 20)
	for _, p := range []string{
		strings.Repeat("a", 25) + "c" + strings.Repeat("a", 8),
		strings.Repeat("ac", 12) + "g" + strings.Repeat("ac", 5),
		strings.Repeat("cag", 8) + "t",
		"gtc" + strings.Repeat("ac", 9) + "tgacag",
	} {
		for k := byte(0); k <= 2; k++ {
			f.Add([]byte(repeats), []byte(p), k)
		}
	}
	// A 1,500-base homopolymer: fuzzBase breaks it every 11th base, so
	// the base's rows a^j·c (j ≤ 10) form a run of over a thousand
	// deleted rows, longer than the split directory's forward scan —
	// the tenant's Split falls back to a select past it.
	f.Add([]byte(strings.Repeat("a", 1500)+"cgtgca"), []byte(strings.Repeat("a", 30)+"cg"), byte(1))
	f.Fuzz(func(t *testing.T, target, pattern []byte, k8 byte) {
		if len(target) == 0 || len(target) > 2000 {
			return
		}
		if len(pattern) == 0 || len(pattern) > 40 {
			return
		}
		k := int(k8) % 5
		cleanT, _ := Sanitize(target)
		cleanP, _ := Sanitize(pattern)
		idx, err := New(cleanT)
		if err != nil {
			t.Fatalf("New(%q): %v", cleanT, err)
		}
		// Deep structural verification under -tags kminvariants (no-op
		// otherwise): any index the fuzzer searches is fully consistent.
		if err := idx.searcher.Index().CheckInvariants(); err != nil {
			t.Fatalf("invariants(%q): %v", cleanT, err)
		}
		sh, err := NewSharded(cleanT, WithShards(3), WithMaxPatternLen(40))
		if err != nil {
			t.Fatalf("NewSharded(%q): %v", cleanT, err)
		}
		tr, _ := alphabet.Encode(cleanT)
		pr, _ := alphabet.Encode(cleanP)
		want := naive.Find(tr, pr, k)
		for _, method := range []Method{AlgorithmA, BWTBaseline, STree, AlgorithmANoPhi, Seed} {
			got, _, err := SearchMethod(idx, cleanP, k, method)
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			// A sharded index sums Stats across shards, so only its
			// matches are compared.
			shGot, _, err := SearchMethod(sh, cleanP, k, method)
			if err != nil {
				t.Fatalf("sharded %v: %v", method, err)
			}
			if !slices.Equal(shGot, got) {
				t.Fatalf("sharded %v: %v, standalone %v (target %q pattern %q k=%d)",
					method, shGot, got, cleanT, cleanP, k)
			}
			if len(got) != len(want) {
				t.Fatalf("%v found %d, oracle %d (target %q pattern %q k=%d)",
					method, len(got), len(want), cleanT, cleanP, k)
			}
			for i := range got {
				if int32(got[i].Pos) != want[i] {
					t.Fatalf("%v position %d: %d vs %d", method, i, got[i].Pos, want[i])
				}
				if d := naive.Hamming(tr[want[i]:int(want[i])+len(pr)], pr, len(pr)); got[i].Mismatches != d {
					t.Fatalf("%v match at %d: %d mismatches, oracle %d (target %q pattern %q k=%d)",
						method, want[i], got[i].Mismatches, d, cleanT, cleanP, k)
				}
			}
		}

		base, err := New(fuzzBase(cleanT))
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewRelative(base, cleanT)
		if err != nil {
			t.Fatalf("NewRelative(%q): %v", cleanT, err)
		}
		if err := rx.searcher.Index().CheckInvariants(); err != nil {
			t.Fatalf("tenant invariants(%q): %v", cleanT, err)
		}
		for _, method := range []Method{AlgorithmA, BWTBaseline, STree, AlgorithmANoPhi} {
			want, wantSt, err := SearchMethod(idx, cleanP, k, method)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := SearchMethod(rx, cleanP, k, method)
			if err != nil {
				t.Fatalf("tenant %v: %v", method, err)
			}
			wantSt.LocateNS, gotSt.LocateNS = 0, 0
			if !slices.Equal(got, want) || gotSt != wantSt {
				t.Fatalf("tenant %v: %d matches %+v, standalone %d matches %+v (target %q pattern %q k=%d)",
					method, len(got), gotSt, len(want), wantSt, cleanT, cleanP, k)
			}
		}
	})
}

// fuzzBase derives the base of FuzzSearchMethods' relative arm from a
// sanitized target: every 11th base replaced by the next one in acgt
// order, and the stretch of a sixteenth of the target starting at its
// third cut out. The tenant's delta then holds insertions and deletions
// at the substitutions and a stretch of insertions at the cut; runs of
// either follow from repeats in the target.
func fuzzBase(target []byte) []byte {
	const next = "cgta" // next[i] follows "acgt"[i]
	cut, cutLen := len(target)/3, len(target)/16
	base := make([]byte, 0, len(target))
	for i, ch := range target {
		if i >= cut && i < cut+cutLen {
			continue
		}
		if i%11 == 5 {
			ch = next[strings.IndexByte("acgt", ch)]
		}
		base = append(base, ch)
	}
	return base
}

// FuzzSaveLoad checks that any index round-trips bit-identically through
// the serializer, at any rankall spacing: rate 0 builds the default,
// any other value a spacing of 1 to 128, most of which are not powers
// of two and take the division branch of the checkpoint lookup.
func FuzzSaveLoad(f *testing.F) {
	f.Add([]byte("acgtacgt"), uint8(0))
	f.Add([]byte("a"), uint8(4))
	f.Add([]byte("ccacacagaagcc"), uint8(7))
	f.Add([]byte("acgtacgtacacagttgaccaacgtacgtacacagttgacca"), uint8(100))
	f.Fuzz(func(t *testing.T, target []byte, rate uint8) {
		if len(target) == 0 || len(target) > 1000 {
			return
		}
		clean, _ := Sanitize(target)
		var opts []Option
		if rate != 0 {
			opts = append(opts, WithOccRate(1+int(rate-1)%128))
		}
		idx, err := New(clean, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved := append([]byte(nil), buf.Bytes()...)
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.searcher.Index().CheckInvariants(); err != nil {
			t.Fatalf("invariants after reload: %v", err)
		}
		if err := loaded.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), saved) {
			t.Fatal("re-saving the loaded index changes the bytes")
		}
		probe := clean
		if len(probe) > 10 {
			probe = probe[:10]
		}
		a, _ := Search(idx, probe, 1)
		b, _ := Search(loaded, probe, 1)
		if len(a) != len(b) {
			t.Fatalf("results differ after reload: %d vs %d", len(a), len(b))
		}
	})
}

// FuzzLoadRoundTrip hammers Load with arbitrary bytes. The contract
// under test: every rejection is an ErrFormat (never a panic, never a
// bare io error) with a nil index, and every accepted index is fully
// usable — the load-time verifyLoad gate plus, under -tags
// kminvariants, the deep invariant checks guarantee no half-built
// structure escapes. Seeds include valid saves (with and without
// reference tables, and the legacy fixtures in the encodings earlier
// writers emitted) so mutation explores near-valid headers and the
// loader's conversion of those encodings.
func FuzzLoadRoundTrip(f *testing.F) {
	save := func(idx *Index) []byte {
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	plain, err := New([]byte("acgtacgtacacagttgacca"))
	if err != nil {
		f.Fatal(err)
	}
	withRefs, err := NewRefs([]Reference{
		{Name: "chr1", Seq: []byte("acgtacgtac")},
		{Name: "chr2", Seq: []byte("ttgacagga")},
	})
	if err != nil {
		f.Fatal(err)
	}
	valid := save(plain)
	f.Add(valid)
	f.Add(save(withRefs))
	for _, name := range legacyFixtures {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Add([]byte("not an index at all"))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0xff
	f.Add(mutated)
	f.Add(nonCanonicalText(valid, true))
	f.Add(nonCanonicalText(valid, false))
	f.Add(textFlipped320(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Load error does not wrap ErrFormat: %v", err)
			}
			if idx != nil {
				t.Fatal("Load returned a non-nil index alongside an error")
			}
			return
		}
		if err := idx.searcher.Index().CheckInvariants(); err != nil {
			t.Fatalf("loaded index fails invariants: %v", err)
		}
		if _, err := Search(idx, []byte("acgt"), 1); err != nil {
			t.Fatalf("loaded index cannot search: %v", err)
		}
		// The loader keeps the text payload it read, so it re-saves as it
		// was: magic, length, word count and words.
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if head := 20 + idx.text.SizeBytes(); !bytes.Equal(buf.Bytes()[:head], data[:head]) {
			t.Fatal("text payload does not re-save byte-identically")
		}
	})
}

// FuzzLoadRelativeRoundTrip hammers the relative-container loader with
// arbitrary bytes against a fixed base, under the standard load
// contract: every rejection wraps ErrFormat (never a panic, never a
// bare io error) with a nil index, and every accepted index is fully
// usable. Seeds include a valid save (with and without a ref table)
// plus truncations and targeted damage, so mutation explores near-valid
// headers, fingerprint bytes, and delta geometry fields.
func FuzzLoadRelativeRoundTrip(f *testing.F) {
	base, err := New([]byte("acgtacgtacacagttgaccaacgtacgtacacagttgaccatagg"))
	if err != nil {
		f.Fatal(err)
	}
	rel, err := NewRelative(base, []byte("acgtacgtacacagtggaccaacgtacgtaacacagttgaccatagg"))
	if err != nil {
		f.Fatal(err)
	}
	rel.SetBasePath("base.km")
	save := func(x *RelativeIndex) []byte {
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := save(rel)
	f.Add(valid)
	baseRefs, err := NewRefs([]Reference{
		{Name: "chr1", Seq: []byte("acgtacgtacgtacgtac")},
		{Name: "chr2", Seq: []byte("ttgacaggattgacagga")},
	})
	if err != nil {
		f.Fatal(err)
	}
	relRefs, err := NewRelativeRefs(baseRefs, []Reference{
		{Name: "chr1", Seq: []byte("acgtacctacgtacgtac")},
		{Name: "chr2", Seq: []byte("ttgacaggattgacagga")},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(save(relRefs))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:4])
	f.Add([]byte{})
	f.Add([]byte("not a relative container"))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0xff
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Against the matching base (most seeds) and a mismatched one —
		// the fingerprint gate must reject the latter for valid payloads
		// without ever panicking on mutated ones.
		for _, b := range []*Index{base, baseRefs} {
			rx, err := LoadRelative(bytes.NewReader(data), b)
			if err != nil {
				if !errors.Is(err, ErrFormat) {
					t.Fatalf("LoadRelative error does not wrap ErrFormat: %v", err)
				}
				if rx != nil {
					t.Fatal("LoadRelative returned a non-nil index alongside an error")
				}
				continue
			}
			if err := rx.searcher.Index().CheckInvariants(); err != nil {
				t.Fatalf("loaded relative index fails invariants: %v", err)
			}
			if _, err := Search(rx, []byte("acgt"), 1); err != nil {
				t.Fatalf("loaded relative index cannot search: %v", err)
			}
		}
	})
}

// FuzzLoadShardedRoundTrip hammers the multi-shard container loader
// with arbitrary bytes, under the same contract as FuzzLoadRoundTrip:
// every rejection — at manifest parse, payload indexing, or lazy shard
// materialization — wraps ErrFormat (never a panic, never a bare io
// error), and every accepted index is fully usable, agreeing with a
// monolithic search over a probe pattern. Seeds include valid sharded
// saves (with and without reference tables) plus targeted damage.
func FuzzLoadShardedRoundTrip(f *testing.F) {
	save := func(x *ShardedIndex) []byte {
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	plain, err := NewSharded([]byte("acgtacgtacacagttgaccaacgtacgtacacagttgacca"),
		WithShardSize(10), WithMaxPatternLen(8))
	if err != nil {
		f.Fatal(err)
	}
	withRefs, err := NewShardedRefs([]Reference{
		{Name: "chr1", Seq: []byte("acgtacgtacgtacgtac")},
		{Name: "chr2", Seq: []byte("ttgacaggattgacagga")},
	}, WithShards(3), WithMaxPatternLen(6))
	if err != nil {
		f.Fatal(err)
	}
	valid := save(plain)
	f.Add(valid)
	f.Add(save(withRefs))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:6])
	f.Add([]byte{})
	f.Add([]byte("not a sharded index"))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0xff
	f.Add(mutated)
	truncTail := append([]byte(nil), valid...)
	f.Add(truncTail[:len(truncTail)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := LoadSharded(bytes.NewReader(data), int64(len(data)))
		if err == nil {
			// The container header parsed; corruption may still hide in a
			// shard payload, surfacing as ErrFormat at materialization.
			err = x.LoadAll()
		}
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error does not wrap ErrFormat: %v", err)
			}
			return
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("loaded sharded index fails invariants: %v", err)
		}
		if _, err := Search(x, []byte("acgt"), 1); err != nil && !errors.Is(err, ErrInput) {
			t.Fatalf("loaded sharded index cannot search: %v", err)
		}
	})
}
