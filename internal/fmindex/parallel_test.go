package fmindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bwtmatch/internal/alphabet"
)

func randomRanksP(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(1 + rng.Intn(alphabet.Bases))
	}
	return out
}

// TestBuildParallelEquivalence builds the same texts serially and with
// several worker counts at several checkpoint spacings and requires
// bit-identical index structures. Sizes straddle the range-splitting
// edges: shorter than one alignment unit, exactly aligned, and long
// enough for every worker to get work.
func TestBuildParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(551))
	layouts := []Options{
		{OccRate: 4, SARate: 16},
		{OccRate: 64, SARate: 8},
		{OccRate: 32, SARate: 16},
		{OccRate: 48, SARate: 16},
		{OccRate: 1, SARate: 4},
	}
	for _, n := range []int{1, 5, 63, 64, 255, 256, 257, 4096, 30000} {
		text := randomRanksP(rng, n)
		for _, base := range layouts {
			serialOpts := base
			serialOpts.Workers = 1
			want, err := Build(text, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 4, 7} {
				opts := base
				opts.Workers = workers
				got, err := Build(text, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.bwt, want.bwt) {
					t.Fatalf("n=%d %+v workers=%d: bwt differs", n, base, workers)
				}
				if got.sentPos != want.sentPos {
					t.Fatalf("n=%d %+v workers=%d: sentPos %d != %d", n, base, workers, got.sentPos, want.sentPos)
				}
				if got.c != want.c {
					t.Fatalf("n=%d %+v workers=%d: C array differs", n, base, workers)
				}
				if !reflect.DeepEqual(got.occ, want.occ) {
					t.Fatalf("n=%d %+v workers=%d: occ differs", n, base, workers)
				}
				if !reflect.DeepEqual(got.saSamples, want.saSamples) {
					t.Fatalf("n=%d %+v workers=%d: saSamples differ", n, base, workers)
				}
				if got.saMarked.Ones() != want.saMarked.Ones() {
					t.Fatalf("n=%d %+v workers=%d: marked rows differ", n, base, workers)
				}
			}
		}
	}
}

// TestBuildPhases checks that a Phases sink receives the construction
// breakdown: the suffix array dominates and every field is sane.
func TestBuildPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(554))
	text := randomRanksP(rng, 50000)
	for _, workers := range []int{1, 4} {
		var ph BuildPhases
		_, err := Build(text, Options{OccRate: 4, SARate: 16, Workers: workers, Phases: &ph})
		if err != nil {
			t.Fatal(err)
		}
		if ph.SANS <= 0 {
			t.Fatalf("workers=%d: SA phase not timed: %+v", workers, ph)
		}
		if ph.BWTNS < 0 || ph.OccNS < 0 || ph.PackNS < 0 {
			t.Fatalf("workers=%d: negative phase: %+v", workers, ph)
		}
		if total := ph.SANS + ph.BWTNS + ph.OccNS + ph.PackNS; total <= 0 {
			t.Fatalf("workers=%d: empty breakdown: %+v", workers, ph)
		}
	}
}

// BenchmarkBuild times a whole Build of a 1 MiB uniform text at one
// and two workers. The suffix array is serial either way, so w2 gains
// only the phases after it; B/op divided by 2^20 is the allocation per
// base.
func BenchmarkBuild(b *testing.B) {
	text := randomRanksP(rand.New(rand.NewSource(3)), 1<<20)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Workers = workers
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Build(text, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildParallelValidation checks the invalid-character error is
// still reported at the first offending position under parallel
// validation.
func TestBuildParallelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(552))
	text := randomRanksP(rng, 10000)
	text[7000] = 9
	text[2500] = 0 // first offender
	for _, workers := range []int{1, 4} {
		_, err := Build(text, Options{OccRate: 4, SARate: 16, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: invalid text accepted", workers)
		}
		const wantPos = "position 2500"
		if got := err.Error(); !containsStr(got, wantPos) {
			t.Fatalf("workers=%d: error %q does not name the first bad position", workers, got)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPackedCountAllMatchesCount cross-checks the single-pass countAll
// against four single-base count calls over random windows.
func TestPackedCountAllMatchesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(553))
	bwt := randomRanksP(rng, 3000)
	bwt[rng.Intn(len(bwt))] = alphabet.Sentinel
	p := newPackedBWT(bwt, 1)
	for trial := 0; trial < 2000; trial++ {
		from := int32(rng.Intn(len(bwt)))
		to := from + int32(rng.Intn(len(bwt)-int(from)+1))
		var got [alphabet.Bases]int32
		p.countAll(from, to, &got)
		for x := byte(alphabet.A); x <= alphabet.T; x++ {
			if want := p.count(x, from, to); got[x-1] != want {
				t.Fatalf("countAll[%d:%d] base %d = %d, count = %d", from, to, x, got[x-1], want)
			}
		}
	}
}

func TestSplitRanges(t *testing.T) {
	for _, tc := range []struct{ n, workers, align int }{
		{0, 4, 16}, {1, 4, 16}, {15, 4, 16}, {16, 4, 16}, {17, 4, 16},
		{1000, 1, 64}, {1000, 3, 64}, {1000, 100, 64}, {64, 64, 64},
	} {
		ranges := splitRanges(tc.n, tc.workers, tc.align)
		if tc.n == 0 {
			if len(ranges) != 0 {
				t.Fatalf("splitRanges(0) = %v", ranges)
			}
			continue
		}
		if len(ranges) > tc.workers {
			t.Fatalf("splitRanges(%+v) produced %d > workers ranges", tc, len(ranges))
		}
		next := 0
		for i, r := range ranges {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("splitRanges(%+v): bad range %d: %v", tc, i, ranges)
			}
			if r[0]%tc.align != 0 {
				t.Fatalf("splitRanges(%+v): range %d start %d unaligned", tc, i, r[0])
			}
			next = r[1]
		}
		if next != tc.n {
			t.Fatalf("splitRanges(%+v): covers [0,%d), want [0,%d)", tc, next, tc.n)
		}
	}
}
