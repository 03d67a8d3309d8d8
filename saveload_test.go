package bwtmatch

import (
	"bytes"
	"errors"
	"math/rand"

	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for _, opts := range [][]Option{
		nil,
		{WithOccRate(32), WithSARate(8)},
		{WithPackedBWT(), WithOccRate(64)},
	} {
		target := randomDNA(rng, 2000)
		orig, err := New(target, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Len() != orig.Len() {
			t.Fatalf("Len %d vs %d", loaded.Len(), orig.Len())
		}
		for q := 0; q < 20; q++ {
			m := 8 + rng.Intn(20)
			p := rng.Intn(len(target) - m)
			pattern := append([]byte(nil), target[p:p+m]...)
			pattern[rng.Intn(m)] = "acgt"[rng.Intn(4)]
			k := rng.Intn(3)
			for _, method := range []Method{AlgorithmA, Amir, Cole} {
				a, _, err := SearchMethod(orig, pattern, k, method)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := SearchMethod(loaded, pattern, k, method)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("%v: %d vs %d matches after reload", method, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%v: match %d differs after reload", method, i)
					}
				}
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "genome.bwt")
	rng := rand.New(rand.NewSource(152))
	target := randomDNA(rng, 1000)
	orig, _ := New(target)
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pattern := target[100:130]
	a, _ := Search(orig, pattern, 2)
	b, _ := Search(loaded, pattern, 2)
	if len(a) != len(b) {
		t.Fatalf("results differ after file round trip")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bwt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xAB}, 100)} {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
			t.Errorf("Load(%d bytes) error = %v, want ErrFormat", len(data), err)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	idx, _ := New(randomDNA(rng, 500))
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every truncation point — including cuts inside the embedded fmindex
	// payload — must surface as ErrFormat, never a raw io error or a panic.
	for cut := 0; cut < len(full); cut += 1 + cut/3 {
		if _, err := Load(bytes.NewReader(full[:cut])); !errors.Is(err, ErrFormat) {
			t.Errorf("truncation at %d: error = %v, want ErrFormat", cut, err)
		}
	}
	if _, err := Load(bytes.NewReader(full[:len(full)-2])); !errors.Is(err, ErrFormat) {
		t.Error("near-complete truncation not rejected with ErrFormat")
	}
	// Ensure a full copy still loads (the truncation loop must not have
	// been vacuous).
	if _, err := Load(bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(154))
	idx, err := NewRefs([]Reference{
		{Name: "chr1", Seq: randomDNA(rng, 300)},
		{Name: "chr2", Seq: randomDNA(rng, 200)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Smash individual header fields with adversarial values. Each must be
	// rejected cleanly (most as ErrFormat; a corrupt byte deep in a
	// payload may legitimately go unnoticed, so only assert no-panic
	// there).
	corrupt := func(off int, val []byte) []byte {
		c := append([]byte(nil), full...)
		copy(c[off:], val)
		return c
	}
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	for name, data := range map[string][]byte{
		"magic":     corrupt(0, []byte{1, 2, 3, 4}),
		"textLen":   corrupt(4, huge),
		"wordCount": corrupt(12, huge),
	} {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s corruption: error = %v, want ErrFormat", name, err)
		}
	}
	// Bit-flip a sample of positions across the whole file: Load must
	// never panic, whatever it decides about validity.
	for off := 0; off < len(full); off += 1 + off/5 {
		c := append([]byte(nil), full...)
		c[off] ^= 0xA5
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked on flipped byte at %d: %v", off, r)
				}
			}()
			Load(bytes.NewReader(c))
		}()
	}
}
