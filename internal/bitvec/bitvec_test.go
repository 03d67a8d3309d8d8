package bitvec

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomVector(rng *rand.Rand, n int, density float64) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	v.Set(0)
	v.Set(64)
	v.Set(129)
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 64 || i == 129
		if v.Get(i) != want {
			t.Fatalf("Get(%d) = %v, want %v", i, v.Get(i), want)
		}
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("Clear(64) did not clear")
	}
	if v.Count() != 2 {
		t.Errorf("Count = %d, want 2", v.Count())
	}
}

func TestAppend(t *testing.T) {
	var v Vector
	pattern := []bool{true, false, true, true, false}
	for i := 0; i < 100; i++ {
		v.Append(pattern[i%len(pattern)])
	}
	if v.Len() != 100 {
		t.Fatalf("Len = %d", v.Len())
	}
	for i := 0; i < 100; i++ {
		if v.Get(i) != pattern[i%len(pattern)] {
			t.Fatalf("Get(%d) mismatch", i)
		}
	}
}

func TestRank1AgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 4000} {
		v := randomVector(rng, n, 0.3)
		r := NewRank(v)
		c := 0
		for i := 0; i <= n; i++ {
			if got := r.Rank1(i); got != c {
				t.Fatalf("n=%d Rank1(%d) = %d, want %d", n, i, got, c)
			}
			if got := r.Rank0(i); got != i-c {
				t.Fatalf("n=%d Rank0(%d) = %d, want %d", n, i, got, i-c)
			}
			if i < n && v.Get(i) {
				c++
			}
		}
	}
}

func TestSelect1Inverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := randomVector(rng, 3000, 0.5)
	r := NewRank(v)
	for j := 1; j <= r.Ones(); j++ {
		p := r.Select1(j)
		if p < 0 || !v.Get(p) {
			t.Fatalf("Select1(%d) = %d not a set bit", j, p)
		}
		if r.Rank1(p+1) != j {
			t.Fatalf("Rank1(Select1(%d)+1) = %d", j, r.Rank1(p+1))
		}
	}
	if r.Select1(0) != -1 || r.Select1(r.Ones()+1) != -1 {
		t.Error("Select1 out of range should return -1")
	}
}

func TestSelect0Inverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randomVector(rng, 2000, 0.7)
	r := NewRank(v)
	zeros := v.Len() - r.Ones()
	for j := 1; j <= zeros; j++ {
		p := r.Select0(j)
		if p < 0 || v.Get(p) {
			t.Fatalf("Select0(%d) = %d not a zero bit", j, p)
		}
		if r.Rank0(p+1) != j {
			t.Fatalf("Rank0(Select0(%d)+1) = %d", j, r.Rank0(p+1))
		}
	}
	if r.Select0(0) != -1 || r.Select0(zeros+1) != -1 {
		t.Error("Select0 out of range should return -1")
	}
}

// runVector returns a vector of n bits made of alternating runs: ones
// runs of length onesRun and zero runs of length zerosRun.
func runVector(n, onesRun, zerosRun int) *Vector {
	v := New(n)
	for i := 0; i < n; {
		for e := min(i+onesRun, n); i < e; i++ {
			v.Set(i)
		}
		i += zerosRun
	}
	return v
}

// TestSelect0AgainstScan checks Select0 and Select0From against the
// zero positions a scan finds. The shapes give well over 512 zeros,
// lengths off a multiple of 64, and runs of ones longer than a word
// and longer than Select0From's 16-word scan, so a scan that stops at
// the wrong word or a fallback that selects the wrong zero shows here.
func TestSelect0AgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type shape struct {
		name string
		v    *Vector
	}
	var shapes []shape
	for _, n := range []int{1, 63, 64, 65, 511, 512, 513, 1000, 4096, 5000, 40001} {
		for _, density := range []float64{0, 0.05, 0.5, 0.95, 1} {
			shapes = append(shapes, shape{fmt.Sprintf("n=%d d=%.2f", n, density), randomVector(rng, n, density)})
		}
	}
	for _, r := range [][2]int{{100, 3}, {700, 200}, {3000, 513}, {5000, 1}} {
		for _, n := range []int{20000, 33333} {
			shapes = append(shapes, shape{fmt.Sprintf("n=%d ones %d zeros %d", n, r[0], r[1]), runVector(n, r[0], r[1])})
		}
	}
	for _, sh := range shapes {
		v := sh.v
		n := v.Len()
		var zeroAt []int        // position of each zero, in order
		zerosBefore := []int{0} // zerosBefore[p] = zeros in [0, p)
		for i := 0; i < n; i++ {
			if !v.Get(i) {
				zeroAt = append(zeroAt, i)
			}
			zerosBefore = append(zerosBefore, len(zeroAt))
		}
		r := NewRank(v)
		for j, want := range zeroAt {
			if got := r.Select0(j + 1); got != want {
				t.Fatalf("%s: Select0(%d) = %d, want %d", sh.name, j+1, got, want)
			}
		}
		if got := r.Select0(len(zeroAt) + 1); got != -1 {
			t.Fatalf("%s: Select0(zeros+1) = %d, want -1", sh.name, got)
		}
		for p := 0; p < n; p++ {
			for _, c := range []int{1, 2, 63, 64, 65, 600, 1100} {
				want := -1
				if k := zerosBefore[p] + c - 1; k < len(zeroAt) {
					want = zeroAt[k]
				}
				if got := r.Select0From(p, c); got != want {
					t.Fatalf("%s: Select0From(%d, %d) = %d, want %d", sh.name, p, c, got, want)
				}
			}
		}
		if got := r.Select0From(n, 1); got != -1 {
			t.Fatalf("%s: Select0From(len, 1) = %d, want -1", sh.name, got)
		}
	}
}

// TestSelectInWord checks the broadword select against the bit loop it
// replaced, on random words and on edge words.
func TestSelectInWord(t *testing.T) {
	loop := func(w uint64, j int) int {
		for i := 0; i < 64; i++ {
			if w>>uint(i)&1 == 1 {
				if j--; j == 0 {
					return i
				}
			}
		}
		return -1
	}
	words := []uint64{1, 1 << 63, ^uint64(0), 1<<63 | 1, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
		0xff, 0xff00000000000000, 0x0000ffff00000000, 0x8080808080808080}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		w := rng.Uint64()
		for k := rng.Intn(4); k > 0; k-- { // sparser words too
			w &= rng.Uint64()
		}
		words = append(words, w)
	}
	for _, w := range words {
		for j := 1; j <= bits.OnesCount64(w); j++ {
			if got, want := selectInWord(w, j), loop(w, j); got != want {
				t.Fatalf("selectInWord(%#x, %d) = %d, want %d", w, j, got, want)
			}
		}
	}
}

func TestRankWordsSizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := randomVector(rng, 777, 0.4)
	r := NewRank(v)
	if len(r.Words()) != len(v.Words()) {
		t.Fatalf("Rank.Words len %d, Vector.Words len %d", len(r.Words()), len(v.Words()))
	}
	if r.SizeBytes() < v.SizeBytes() {
		t.Fatalf("Rank.SizeBytes %d smaller than payload %d", r.SizeBytes(), v.SizeBytes())
	}
}

func TestRankSelectQuick(t *testing.T) {
	f := func(seed int64, n16 uint16, density uint8) bool {
		n := int(n16) % 2048
		rng := rand.New(rand.NewSource(seed))
		v := randomVector(rng, n, float64(density)/255)
		r := NewRank(v)
		// rank law: Rank1(i+1) - Rank1(i) == bit i
		for trial := 0; trial < 32 && n > 0; trial++ {
			i := rng.Intn(n)
			d := r.Rank1(i+1) - r.Rank1(i)
			if (d == 1) != v.Get(i) {
				return false
			}
		}
		return r.Rank1(n) == v.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAllOnesAllZeros(t *testing.T) {
	n := 1000
	ones := New(n)
	for i := 0; i < n; i++ {
		ones.Set(i)
	}
	r := NewRank(ones)
	if r.Rank1(n) != n || r.Select1(n) != n-1 {
		t.Error("all-ones rank/select wrong")
	}
	zeros := New(n)
	rz := NewRank(zeros)
	if rz.Rank1(n) != 0 || rz.Select0(n) != n-1 {
		t.Error("all-zeros rank/select wrong")
	}
}

func TestWordsFromWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 63, 64, 65, 777} {
		v := randomVector(rng, n, 0.4)
		rebuilt := FromWords(append([]uint64(nil), v.Words()...), n)
		if rebuilt.Len() != n {
			t.Fatalf("Len = %d, want %d", rebuilt.Len(), n)
		}
		for i := 0; i < n; i++ {
			if rebuilt.Get(i) != v.Get(i) {
				t.Fatalf("bit %d differs after round trip (n=%d)", i, n)
			}
		}
	}
}

func TestFromWordsPadsShortPayload(t *testing.T) {
	v := FromWords([]uint64{0xFF}, 256) // needs 4 words, given 1
	if v.Len() != 256 {
		t.Fatalf("Len = %d", v.Len())
	}
	for i := 0; i < 8; i++ {
		if !v.Get(i) {
			t.Fatalf("low bit %d lost", i)
		}
	}
	for i := 64; i < 256; i++ {
		if v.Get(i) {
			t.Fatalf("padded bit %d set", i)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	v := New(128)
	if v.SizeBytes() != 16 {
		t.Errorf("SizeBytes = %d, want 16", v.SizeBytes())
	}
}

func BenchmarkRank1(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	v := randomVector(rng, 1<<20, 0.5)
	r := NewRank(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Rank1(i % (1 << 20))
	}
}

func BenchmarkSelect1(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	v := randomVector(rng, 1<<20, 0.5)
	r := NewRank(v)
	ones := r.Ones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Select1(i%ones + 1)
	}
}

// BenchmarkSelect0 selects zeros of a vector one tenth ones, the
// density of a 1% tenant's deleted base rows.
func BenchmarkSelect0(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	r := NewRank(randomVector(rng, 1<<20, 0.1))
	zeros := r.Len() - r.Ones()
	for i := 0; b.Loop(); i++ {
		r.Select0(i%zeros + 1)
	}
}
