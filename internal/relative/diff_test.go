package relative

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// refCommon is Common as it was before the Aligner: a fresh v array
// and a full snapshot of it per edit round. It is the reference the
// Aligner must reproduce pair for pair, since every relative container
// records the alignment it emits.
func refCommon(a, b []byte, maxD int, emit func(ai, bi int)) {
	// Shared prefix.
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		emit(p, p)
		p++
	}
	a2, b2 := a[p:], b[p:]
	// Shared suffix (not overlapping the prefix).
	s := 0
	for s < len(a2) && s < len(b2) && a2[len(a2)-1-s] == b2[len(b2)-1-s] {
		s++
	}
	mid1, mid2 := a2[:len(a2)-s], b2[:len(b2)-s]
	if len(mid1) > 0 && len(mid2) > 0 {
		myersCommon(mid1, mid2, maxD, p, p, emit)
	}
	for i := s; i > 0; i-- {
		emit(len(a)-i, len(b)-i)
	}
}

// myersCommon runs the classic Myers greedy O(ND) LCS with a trace of
// per-round furthest-reaching snapshots, then backtracks to emit the
// matched pairs (offset by offA/offB) in forward order. If the edit
// distance exceeds maxD nothing is emitted.
func myersCommon(a, b []byte, maxD int, offA, offB int, emit func(ai, bi int)) {
	n, m := len(a), len(b)
	if d := n + m; d < maxD {
		maxD = d
	}
	size := 2*maxD + 2
	v := make([]int, size)
	idx := func(k int) int { return ((k % size) + size) % size }
	var trace [][]int
	found := -1
search:
	for d := 0; d <= maxD; d++ {
		snap := make([]int, size)
		copy(snap, v)
		trace = append(trace, snap)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[idx(k-1)] < v[idx(k+1)]) {
				x = v[idx(k+1)]
			} else {
				x = v[idx(k-1)] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[idx(k)] = x
			if x >= n && y >= m {
				found = d
				break search
			}
		}
	}
	if found < 0 {
		return // budget exceeded: contribute no pairs for this block
	}
	// Backtrack from (n, m) through the snapshots; diagonal runs are the
	// matches, collected in reverse and replayed forward.
	type pair struct{ ai, bi int }
	var rev []pair
	x, y := n, m
	for d := found; d >= 0 && (x > 0 || y > 0); d-- {
		vd := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vd[idx(k-1)] < vd[idx(k+1)]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vd[idx(prevK)]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			rev = append(rev, pair{x, y})
		}
		if d > 0 {
			x, y = prevX, prevY
		}
	}
	for i := len(rev) - 1; i >= 0; i-- {
		emit(offA+rev[i].ai, offB+rev[i].bi)
	}
}

// collect returns the pairs common emits for (a, b, maxD), flattened.
func collect(common func(a, b []byte, maxD int, emit func(ai, bi int)), a, b []byte, maxD int) []int {
	var got []int
	common(a, b, maxD, func(ai, bi int) { got = append(got, ai, bi) })
	return got
}

// checkCommon compares the Aligner (a shared one, so buffers left by
// earlier diffs are in play) with the reference on one input.
func checkCommon(t testing.TB, al *Aligner, a, b []byte, maxD int) {
	t.Helper()
	want := collect(refCommon, a, b, maxD)
	if got := collect(al.Common, a, b, maxD); !slices.Equal(got, want) {
		t.Fatalf("len %d/%d maxD %d: Aligner emitted %d pairs, reference %d\n got %v\nwant %v",
			len(a), len(b), maxD, len(got)/2, len(want)/2, got, want)
	}
	if got := collect(Common, a, b, maxD); !slices.Equal(got, want) {
		t.Fatalf("len %d/%d maxD %d: Common differs from the reference", len(a), len(b), maxD)
	}
}

// TestCommonMatchesReference runs the Aligner against the reference on
// unrelated pairs, on pairs 1–5% apart, on every length from 0 to 600
// (across the 8-byte snake boundaries), and on budgets from 0 to 130,
// so blocks over budget, which emit only the trimmed prefix and
// suffix, are compared too.
func TestCommonMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var al Aligner
	for trial := 0; trial < 300; trial++ {
		a := randSeq(rng, rng.Intn(300))
		b := randSeq(rng, rng.Intn(300))
		checkCommon(t, &al, a, b, rng.Intn(131))
	}
	for trial := 0; trial < 300; trial++ {
		a := randSeq(rng, 50+rng.Intn(550))
		b := mutate(rng, a, 0.01+0.04*rng.Float64())
		checkCommon(t, &al, a, b, rng.Intn(131))
	}
	for n := 0; n <= 600; n++ {
		a := randSeq(rng, n)
		b := mutate(rng, a, 0.03)
		checkCommon(t, &al, a, b, 128)
		checkCommon(t, &al, a, b, n%131)
	}
	// Two long runs that differ only in their last byte, and in their
	// first: the snake ends inside a word, or runs to the end.
	for _, n := range []int{7, 8, 9, 15, 16, 17, 63, 64, 65} {
		a := bytes.Repeat([]byte{1}, n)
		b := slices.Clone(a)
		b[n-1] = 2
		checkCommon(t, &al, a, b, 4)
		b[n-1], b[0] = 1, 3
		checkCommon(t, &al, a, b, 4)
	}
}

// TestCommonReusedAlignerAllocates pins the scratch: once an Aligner's
// buffers have grown, further diffs allocate nothing.
func TestCommonReusedAlignerAllocates(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := randSeq(rng, 600)
	b := mutate(rng, a, 0.05)
	var al Aligner
	pairs := 0
	emit := func(ai, bi int) { pairs++ }
	al.Common(a, b, 128, emit)
	if allocs := testing.AllocsPerRun(20, func() { al.Common(a, b, 128, emit) }); allocs != 0 {
		t.Fatalf("reused Aligner allocates %.1f times per diff", allocs)
	}
	if pairs == 0 {
		t.Fatal("no pairs emitted")
	}
}

// FuzzCommon checks the Aligner against the reference on two arbitrary
// byte slices and a budget of 0..130.
func FuzzCommon(f *testing.F) {
	f.Add([]byte("acgtacgt"), []byte("acgacgt"), uint8(4))
	f.Add([]byte{1, 2, 3, 1, 1, 1, 1, 4, 3, 2}, []byte{1, 2, 3, 2, 2, 2, 4, 3, 2}, uint8(2))
	f.Add(bytes.Repeat([]byte{1, 2}, 40), bytes.Repeat([]byte{2, 1}, 41), uint8(130))
	f.Add([]byte{}, []byte{1}, uint8(0))
	var al Aligner
	f.Fuzz(func(t *testing.T, a, b []byte, maxD uint8) {
		checkCommon(t, &al, a, b, int(maxD)%131)
	})
}
