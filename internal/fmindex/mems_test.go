package fmindex

import (
	"bytes"
	"math/rand"
	"testing"
)

// naiveMS computes matching statistics by direct substring search.
func naiveMS(text, pattern []byte) []int {
	ms := make([]int, len(pattern))
	for i := range pattern {
		l := 0
		for i+l < len(pattern) {
			if !bytes.Contains(text, pattern[i:i+l+1]) {
				break
			}
			l++
		}
		ms[i] = l
	}
	return ms
}

func TestMatchingStatsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	for trial := 0; trial < 30; trial++ {
		text := randomRanks(rng, 30+rng.Intn(400))
		bi, err := BuildBi(text, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 5; q++ {
			m := 1 + rng.Intn(40)
			var pattern []byte
			if rng.Intn(2) == 0 && len(text) > m {
				p := rng.Intn(len(text) - m)
				pattern = append([]byte(nil), text[p:p+m]...)
				if m > 2 {
					pattern[rng.Intn(m)] = byte(1 + rng.Intn(4))
				}
			} else {
				pattern = randomRanks(rng, m)
			}
			got := bi.MatchingStats(pattern)
			want := naiveMS(text, pattern)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ms[%d] = %d, want %d (text=%v pattern=%v)",
						i, got[i], want[i], text, pattern)
				}
			}
		}
	}
}

func TestMEMsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(252))
	for trial := 0; trial < 30; trial++ {
		text := randomRanks(rng, 100+rng.Intn(400))
		bi, _ := BuildBi(text, DefaultOptions())
		p := rng.Intn(len(text) - 60)
		pattern := append([]byte(nil), text[p:p+60]...)
		// Two mutations split the exact match into up to three MEMs.
		pattern[15] = byte(1 + rng.Intn(4))
		pattern[40] = byte(1 + rng.Intn(4))
		minLen := 5
		mems := bi.MEMs(pattern, minLen)
		ms := naiveMS(text, pattern)
		for _, mem := range mems {
			if mem.Len < minLen {
				t.Fatalf("MEM below minLen: %+v", mem)
			}
			// The MEM substring must occur.
			if ms[mem.Start] != mem.Len {
				t.Fatalf("MEM at %d has len %d, matching stat %d", mem.Start, mem.Len, ms[mem.Start])
			}
			// Right-maximality.
			if mem.Start+mem.Len < len(pattern) && bytes.Contains(text, pattern[mem.Start:mem.Start+mem.Len+1]) {
				t.Fatalf("MEM at %d extendable right", mem.Start)
			}
			// Left-maximality: pattern[start-1 .. start+len) must not occur.
			if mem.Start > 0 && bytes.Contains(text, pattern[mem.Start-1:mem.Start+mem.Len]) {
				t.Fatalf("MEM at %d extendable left", mem.Start)
			}
			// Locating the interval must yield genuine occurrences.
			pos := mustLocate(t, bi.Fwd(), mem.Iv.Fwd)
			if len(pos) == 0 {
				t.Fatalf("MEM with no occurrences")
			}
			for _, q := range pos {
				if !bytes.Equal(text[q:int(q)+mem.Len], pattern[mem.Start:mem.Start+mem.Len]) {
					t.Fatalf("located occurrence mismatches MEM text")
				}
			}
		}
		// Every sufficiently long left-maximal match must be reported:
		// cross-check against a direct enumeration.
		var want []int
		for i := 0; i < len(pattern); i++ {
			if ms[i] < minLen {
				continue
			}
			if i > 0 && ms[i] < ms[i-1] {
				continue // contained in the previous start's match
			}
			want = append(want, i)
		}
		if len(want) != len(mems) {
			t.Fatalf("reported %d MEMs, want %d (starts %v)", len(mems), len(want), want)
		}
		for i := range want {
			if mems[i].Start != want[i] {
				t.Fatalf("MEM starts %v, want %v", mems[i].Start, want[i])
			}
		}
	}
}

func TestMEMsMinLenClamp(t *testing.T) {
	text := []byte{1, 2, 3, 4}
	bi, _ := BuildBi(text, DefaultOptions())
	mems := bi.MEMs([]byte{1, 2}, 0) // clamped to 1
	if len(mems) == 0 {
		t.Fatal("no MEMs with clamped minLen")
	}
}
