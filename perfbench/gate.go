package main

import (
	"fmt"
	"math/rand"

	"bwtmatch/internal/naive"
)

// hit is one reported occurrence, from the library or from the wire.
type hit struct{ pos, mism int }

// checkHits is the per-read correctness gate. Every reported occurrence
// must lie inside text, positions must strictly increase, and the
// Hamming distance recomputed from the generated text must equal the
// reported mismatch count and be at most k.
func checkHits(text, read []byte, k int, hits []hit) error {
	prev := -1
	for _, h := range hits {
		if h.pos <= prev {
			return fmt.Errorf("position %d after %d: not strictly increasing", h.pos, prev)
		}
		if h.pos < 0 || h.pos+len(read) > len(text) {
			return fmt.Errorf("position %d outside a text of %d bases", h.pos, len(text))
		}
		d := naive.Hamming(text[h.pos:h.pos+len(read)], read, k)
		if d != h.mism || d > k {
			return fmt.Errorf("position %d reports %d mismatches, text has %d (k=%d)", h.pos, h.mism, d, k)
		}
		prev = h.pos
	}
	return nil
}

// checkComplete compares a read's reported positions in full against
// the naive oracle, which catches occurrences the search missed.
func checkComplete(text, read []byte, k int, hits []hit) error {
	want := naive.Find(text, read, k)
	if len(want) != len(hits) {
		return fmt.Errorf("%d occurrences reported, naive.Find has %d", len(hits), len(want))
	}
	for i, p := range want {
		if hits[i].pos != int(p) {
			return fmt.Errorf("occurrence %d at %d, naive.Find has %d", i, hits[i].pos, p)
		}
	}
	return checkHits(text, read, k, hits)
}

// readKey names a read: its text (tenant) and index in that text's
// read pool.
type readKey struct{ text, read int }

// gate checks the answers of one caller goroutine. It verifies every
// occurrence against the text and keeps the answers of a few sampled
// reads for the complete comparison against naive.Find after the
// measured phase.
type gate struct {
	texts   [][]byte
	k       int
	hits    int64 // occurrences verified
	sampled map[readKey]bool
	kept    map[readKey][]hit
	err     error // first violation
}

func newGate(texts [][]byte, k int, sample []readKey) *gate {
	g := &gate{texts: texts, k: k, sampled: map[readKey]bool{}, kept: map[readKey][]hit{}}
	for _, key := range sample {
		g.sampled[key] = true
	}
	return g
}

// check verifies one read's answer.
func (g *gate) check(key readKey, read []byte, hits []hit) {
	if err := checkHits(g.texts[key.text], read, g.k, hits); err != nil && g.err == nil {
		g.err = fmt.Errorf("text %d read %d: %w", key.text, key.read, err)
	}
	g.hits += int64(len(hits))
	if g.sampled[key] && g.kept[key] == nil {
		g.kept[key] = append([]hit{}, hits...)
	}
}

// finish runs the complete comparison over the kept samples of every
// gate and reports the first violation; read(key) returns a read's
// bases. It returns how many occurrences were verified and how many
// reads were compared in full.
func finish(gates []*gate, read func(readKey) []byte) (hits int64, compared int, err error) {
	for _, g := range gates {
		hits += g.hits
		if g.err != nil && err == nil {
			err = g.err
		}
		for key, hs := range g.kept {
			if cerr := checkComplete(g.texts[key.text], read(key), g.k, hs); cerr != nil && err == nil {
				err = fmt.Errorf("text %d read %d: %w", key.text, key.read, cerr)
			}
			compared++
		}
	}
	if err == nil && compared == 0 {
		err = fmt.Errorf("no sampled read was answered")
	}
	return hits, compared, err
}

// pickSample draws n distinct read indices from [lo, hi).
func pickSample(rng *rand.Rand, text, lo, hi, n int) []readKey {
	var out []readKey
	for _, i := range rng.Perm(hi - lo)[:min(n, hi-lo)] {
		out = append(out, readKey{text: text, read: lo + i})
	}
	return out
}
