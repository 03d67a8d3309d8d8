package fmindex

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bwtmatch/internal/alphabet"
)

// mutateRanks applies roughly rate-fraction point edits to a
// rank-encoded text (substitutions, insertions, deletions).
func mutateRanks(rng *rand.Rand, s []byte, rate float64) []byte {
	out := make([]byte, 0, len(s)+16)
	for _, ch := range s {
		if rng.Float64() < rate {
			switch rng.Intn(3) {
			case 0:
				out = append(out, byte(1+rng.Intn(alphabet.Bases)))
			case 1:
				out = append(out, byte(1+rng.Intn(alphabet.Bases)), ch)
			case 2:
			}
		} else {
			out = append(out, ch)
		}
	}
	if len(out) == 0 {
		out = append(out, 1)
	}
	return out
}

func buildRelativePair(t *testing.T, rng *rand.Rand, n int, rate float64) (base, tenant, rel *Index, tenText []byte) {
	t.Helper()
	baseText := randomRanks(rng, n)
	tenText = mutateRanks(rng, baseText, rate)
	base, tenant, rel = buildRelative(t, baseText, tenText)
	return base, tenant, rel, tenText
}

// buildRelative indexes both texts and expresses the tenant against
// the base.
func buildRelative(t *testing.T, baseText, tenText []byte) (base, tenant, rel *Index) {
	t.Helper()
	base, err := Build(baseText, Options{OccRate: 4, SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	tenant, err = Build(tenText, Options{OccRate: 4, SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	rel, err = MakeRelative(base, tenant)
	if err != nil {
		t.Fatal(err)
	}
	return base, tenant, rel
}

func TestRelativeMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 11; trial++ {
		// Trials 8 and 9 diverge far enough for alignment blocks to
		// fail. Trial 10's base holds a run of 600 'a's that its tenant
		// lacks: the base rows starting a^k are consecutive and all
		// deleted, so some narrow tenant intervals span hundreds of
		// base rows.
		var tenant, rel *Index
		var tenText []byte
		switch n := 200 + rng.Intn(2000); {
		case trial < 8:
			_, tenant, rel, tenText = buildRelativePair(t, rng, n, 0.03)
		case trial < 10:
			_, tenant, rel, tenText = buildRelativePair(t, rng, n, 0.4)
		default:
			baseText := randomRanks(rng, n)
			tenText = mutateRanks(rng, baseText, 0.01)
			baseText = slices.Insert(baseText, n/2, bytes.Repeat([]byte{alphabet.A}, 600)...)
			_, tenant, rel = buildRelative(t, baseText, tenText)
		}

		if !bytes.Equal(rel.BWT(), tenant.BWT()) {
			t.Fatal("bridged BWT differs from standalone")
		}
		rows := int32(tenant.N() + 1)
		for p := int32(0); p <= rows; p += 3 {
			var relAll, tenAll [alphabet.Bases]int32
			rel.occAll(p, &relAll)
			tenant.occAll(p, &tenAll)
			if relAll != tenAll {
				t.Fatalf("occAll(%d): relative %v, standalone %v", p, relAll, tenAll)
			}
			for x := byte(alphabet.A); x <= alphabet.T; x++ {
				if got, want := rel.occAt(x, p), tenant.occAt(x, p); got != want {
					t.Fatalf("occAt(%d,%d): relative %d, standalone %d", x, p, got, want)
				}
			}
		}
		// The steps the walks take: StepAll and Step for every base on
		// every interval up to 70 rows wide and on wide ones from every
		// third row, and StepSingleton and the LF step on every row.
		// Neither interval step reads a character.
		var relOut, tenOut [alphabet.Bases]Interval
		for lo := int32(0); lo <= rows; lo++ {
			b0, i0 := rel.RelDelta().Reads()
			for hi := lo; hi <= rows && (hi-lo <= 70 || lo%3 == 0); hi += 1 + (hi-lo)/70*37 {
				iv := Interval{lo, hi}
				rel.StepAll(iv, &relOut)
				tenant.StepAll(iv, &tenOut)
				if relOut != tenOut {
					t.Fatalf("trial %d: StepAll(%v): relative %v, standalone %v", trial, iv, relOut, tenOut)
				}
				for x := byte(alphabet.A); x <= alphabet.T; x++ {
					if got, want := rel.Step(x, iv), tenant.Step(x, iv); got != want {
						t.Fatalf("trial %d: Step(%d, %v): relative %v, standalone %v", trial, x, iv, got, want)
					}
				}
			}
			if b1, i1 := rel.RelDelta().Reads(); b1 != b0 || i1 != i0 {
				t.Fatalf("trial %d: interval steps from row %d read %d characters", trial, lo, b1-b0+i1-i0)
			}
			if lo == rows {
				break
			}
			gx, gc, gok := rel.StepSingleton(Interval{lo, lo + 1})
			wx, wc, wok := tenant.StepSingleton(Interval{lo, lo + 1})
			if gx != wx || gc != wc || gok != wok {
				t.Fatalf("trial %d: StepSingleton(%d): relative (%d, %v, %v), standalone (%d, %v, %v)",
					trial, lo, gx, gc, gok, wx, wc, wok)
			}
			// StepSingletonIf agrees with the standalone index for every
			// wanted base and reads the row's character exactly once,
			// also when it skips the rank query.
			for want := byte(alphabet.A); want <= alphabet.T; want++ {
				b0, i0 := rel.RelDelta().Reads()
				rx, rc, rok := rel.StepSingletonIf(Interval{lo, lo + 1}, want)
				b1, i1 := rel.RelDelta().Reads()
				if reads := b1 - b0 + i1 - i0; reads != 1 {
					t.Fatalf("trial %d: StepSingletonIf(%d, %d) read %d characters", trial, lo, want, reads)
				}
				sx, sc, sok := tenant.StepSingletonIf(Interval{lo, lo + 1}, want)
				if rx != sx || rc != sc || rok != sok {
					t.Fatalf("trial %d: StepSingletonIf(%d, %d): relative (%d, %v, %v), standalone (%d, %v, %v)",
						trial, lo, want, rx, rc, rok, sx, sc, sok)
				}
			}
			checkStepSingletonIf(t, rel, lo, gx, gc, gok)
			if got, want := rel.lfStep(lo), tenant.lfStep(lo); got != want {
				t.Fatalf("trial %d: lfStep(%d): relative %d, standalone %d", trial, lo, got, want)
			}
		}
		// Search + Locate equivalence over sampled patterns.
		for probe := 0; probe < 30; probe++ {
			plen := 1 + rng.Intn(20)
			start := rng.Intn(len(tenText))
			if start+plen > len(tenText) {
				plen = len(tenText) - start
			}
			pat := tenText[start : start+plen]
			gotIv, wantIv := rel.Search(pat), tenant.Search(pat)
			if gotIv != wantIv {
				t.Fatalf("Search(%v): relative %v, standalone %v", pat, gotIv, wantIv)
			}
			got := mustLocate(t, rel, gotIv)
			want := mustLocate(t, tenant, wantIv)
			if len(got) != len(want) {
				t.Fatalf("Locate count %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Locate[%d] = %d, standalone %d", i, got[i], want[i])
				}
			}
			gm, gs := rel.MatchLen(pat)
			wm, ws := tenant.MatchLen(pat)
			if gm != wm || gs != ws {
				t.Fatalf("MatchLen: relative (%d,%d), standalone (%d,%d)", gm, gs, wm, ws)
			}
		}
		// MatchLen on patterns that stop early — random ones, and
		// tenant substrings with one base substituted — and on every
		// suffix of them: the tenant reports the standalone Step loop's
		// (matched, steps) and reads one character per one-row step.
		for probe := 0; probe < 40; probe++ {
			var pat []byte
			if probe%2 == 0 {
				pat = randomRanks(rng, 8+rng.Intn(23))
			} else {
				start := rng.Intn(len(tenText))
				pat = slices.Clone(tenText[start:min(len(tenText), start+10+rng.Intn(31))])
				q := rng.Intn(len(pat))
				pat[q] = alphabet.A + (pat[q]-alphabet.A+byte(1+rng.Intn(3)))%alphabet.Bases
			}
			for i := range pat {
				wm, ws, oneRow := matchLenSteps(tenant, pat[i:])
				b0, i0 := rel.RelDelta().Reads()
				gm, gs := rel.MatchLen(pat[i:])
				b1, i1 := rel.RelDelta().Reads()
				if sm, ss := tenant.MatchLen(pat[i:]); sm != wm || ss != ws {
					t.Fatalf("trial %d: standalone MatchLen(%v) = (%d, %d), Step loop (%d, %d)", trial, pat[i:], sm, ss, wm, ws)
				}
				if gm != wm || gs != ws {
					t.Fatalf("trial %d: MatchLen(%v): relative (%d, %d), standalone (%d, %d)", trial, pat[i:], gm, gs, wm, ws)
				}
				if reads := b1 - b0 + i1 - i0; reads != int64(oneRow) {
					t.Fatalf("trial %d: MatchLen(%v) read %d characters for %d one-row steps", trial, pat[i:], reads, oneRow)
				}
			}
		}
		// Read counters must have moved (base hits dominate at low
		// divergence).
		baseReads, insReads := rel.RelDelta().Reads()
		if baseReads == 0 {
			t.Fatal("no base reads recorded")
		}
		_ = insReads
	}
}

// matchLenSteps is MatchLen as a plain Step loop from the full
// interval: the prefix length matched, the steps taken, and how many of
// them started from a one-row interval.
func matchLenSteps(idx *Index, p []byte) (matched, steps, oneRow int) {
	iv := idx.Full()
	for q, x := range p {
		if iv.Len() == 1 {
			oneRow++
		}
		iv = idx.Step(x, iv)
		steps++
		if iv.Empty() {
			return q, steps, oneRow
		}
	}
	return len(p), steps, oneRow
}

func TestRelativeReconstructText(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	_, _, rel, tenText := buildRelativePair(t, rng, 800, 0.02)
	got, err := rel.ReconstructText()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, tenText) {
		t.Fatal("reconstructed text differs from original")
	}
}

func TestRelativeDeltaSmallAtLowDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	_, tenant, rel, _ := buildRelativePair(t, rng, 4000, 0.01)
	if rel.SizeBytes() >= tenant.SizeBytes() {
		t.Fatalf("relative %d bytes, standalone %d — no space win at 1%% divergence",
			rel.SizeBytes(), tenant.SizeBytes())
	}
}

func TestRelativeIdenticalTenant(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	text := randomRanks(rng, 500)
	base, err := Build(text, Options{OccRate: 4, SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := Build(text, Options{OccRate: 4, SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := MakeRelative(base, tenant)
	if err != nil {
		t.Fatal(err)
	}
	d := rel.RelDelta()
	if d.InsLen() != 0 || d.DelLen() != 0 {
		t.Fatalf("identical tenant produced %d insertions, %d deletions",
			d.InsLen(), d.DelLen())
	}
}

func TestRelativeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	base, _, rel, tenText := buildRelativePair(t, rng, 1200, 0.03)

	var buf bytes.Buffer
	if _, err := rel.WriteRelativeTo(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	got, err := ReadRelativeIndex(bytes.NewReader(saved), base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.BWT(), rel.BWT()) {
		t.Fatal("BWT differs after round trip")
	}
	pat := tenText[:10]
	if got.Search(pat) != rel.Search(pat) {
		t.Fatal("search differs after round trip")
	}

	// A standalone index must refuse WriteRelativeTo; a relative one
	// must refuse WriteTo.
	if _, err := base.WriteRelativeTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteRelativeTo accepted a standalone index")
	}
	if _, err := rel.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo accepted a relative index")
	}

	// Wrong base: an index over different content must be rejected by
	// the load-time verification.
	otherText := randomRanks(rng, 1200)
	other, err := Build(otherText, Options{OccRate: 4, SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRelativeIndex(bytes.NewReader(saved), other); err == nil {
		t.Fatal("relative payload accepted against the wrong base")
	}

	// Truncations and flips: error (wrapping ErrFormat), never panic.
	for cut := 0; cut < len(saved); cut += 97 {
		if _, err := ReadRelativeIndex(bytes.NewReader(saved[:cut]), base); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for pos := 4; pos < len(saved); pos += 53 {
		mut := append([]byte(nil), saved...)
		mut[pos] ^= 0x40
		_, _ = ReadRelativeIndex(bytes.NewReader(mut), base)
	}
}

func TestRelativeFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	text := randomRanks(rng, 400)
	a, err := Build(text, Options{OccRate: 4, SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(text, Options{OccRate: 64, SARate: 32})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on layout, not content")
	}
	// The hash is over the BWT characters one rank per byte, as written
	// into relative containers, across several hashing chunks.
	long, err := Build(randomRanks(rng, 10000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if long.Fingerprint() != sha256.Sum256(long.BWT()) {
		t.Fatal("fingerprint is not the sha256 of the BWT characters")
	}
	c, err := Build(randomRanks(rng, 400), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("distinct texts share a fingerprint")
	}
}

// TestFingerprintCached pins the fingerprint cell: after the first
// call Fingerprint allocates nothing and still equals the sha256 of
// the BWT, on a standalone index, a relative one, a loaded one, and on
// the RankOnly and WithoutSample copies, which share the cell whether
// they were made before or after the first call.
func TestFingerprintCached(t *testing.T) {
	rng := rand.New(rand.NewSource(310))
	base, _, rel, _ := buildRelativePair(t, rng, 6000, 0.02)
	var buf bytes.Buffer
	if _, err := base.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	early := base.RankOnly() // made before the first call
	for name, idx := range map[string]*Index{"standalone": base, "relative": rel, "loaded": loaded} {
		want := sha256.Sum256(idx.BWT())
		if idx.Fingerprint() != want {
			t.Fatalf("%s: fingerprint is not the sha256 of the BWT", name)
		}
		if allocs := testing.AllocsPerRun(5, func() { idx.Fingerprint() }); allocs != 0 {
			t.Fatalf("%s: a cached Fingerprint allocates %.0f times", name, allocs)
		}
		if idx.Fingerprint() != want {
			t.Fatalf("%s: cached fingerprint changed", name)
		}
	}
	want := base.Fingerprint()
	for name, cp := range map[string]*Index{"early RankOnly": early, "RankOnly": base.RankOnly(), "WithoutSample": base.WithoutSample(0)} {
		if cp.fp != base.fp {
			t.Fatalf("%s copy has a fingerprint cell of its own", name)
		}
		if cp.Fingerprint() != want {
			t.Fatalf("%s copy has another fingerprint", name)
		}
	}
}

// TestRankOnlyBase checks the sample-free form of a standalone index:
// it answers every rank query, the BWT and the fingerprint as the
// index does, bridges a relative tenant built or loaded against it to
// the same answers, counts only the 2-bit BWT and the occ checkpoints,
// and refuses Locate and WriteTo with ErrRankOnly, while the index it
// was made from keeps its samples.
func TestRankOnlyBase(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	base, tenant, rel, tenText := buildRelativePair(t, rng, 1500, 0.02)
	ro := base.RankOnly()
	if !ro.IsRankOnly() || base.IsRankOnly() {
		t.Fatal("RankOnly did not make a sample-free copy of a sampled index")
	}
	rows := base.N() + 1
	if want := (rows+31)/32*8 + (rows/4+1)*alphabet.Bases*4; ro.SizeBytes() != want {
		t.Fatalf("rank-only SizeBytes %d, want BWT plus checkpoints %d", ro.SizeBytes(), want)
	}
	if ro.SizeBytes() >= base.SizeBytes() {
		t.Fatal("rank-only form counts its base's samples")
	}
	if !bytes.Equal(ro.BWT(), base.BWT()) || ro.Fingerprint() != base.Fingerprint() {
		t.Fatal("rank-only BWT differs")
	}
	for q := 0; q < 200; q++ {
		lo := int32(rng.Intn(rows))
		iv := Interval{lo, lo + 1 + int32(rng.Intn(rows-int(lo)))}
		var a, b [alphabet.Bases]Interval
		base.StepAll(iv, &a)
		ro.StepAll(iv, &b)
		if a != b {
			t.Fatalf("StepAll(%v) differs: %v vs %v", iv, b, a)
		}
	}
	if err := ro.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	iv := base.Search(tenText[:3])
	if _, err := ro.Locate(iv, nil); !errors.Is(err, ErrRankOnly) {
		t.Fatalf("rank-only Locate err %v, want ErrRankOnly", err)
	}
	if _, err := ro.WriteTo(&bytes.Buffer{}); !errors.Is(err, ErrRankOnly) {
		t.Fatalf("rank-only WriteTo err %v, want ErrRankOnly", err)
	}
	mustLocate(t, base, iv)

	var buf bytes.Buffer
	if _, err := rel.WriteRelativeTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadRelativeIndex(&buf, ro)
	if err != nil {
		t.Fatal(err)
	}
	made, err := MakeRelative(ro, tenant)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 30; q++ {
		p := rng.Intn(len(tenText) - 8)
		pat := tenText[p : p+1+rng.Intn(8)]
		want := mustLocate(t, tenant, tenant.Search(pat))
		for _, x := range []*Index{loaded, made} {
			if got := mustLocate(t, x, x.Search(pat)); !slices.Equal(got, want) {
				t.Fatalf("tenant over a rank-only base: %v, want %v", got, want)
			}
		}
	}
}

// relativePayload builds tenText's index, expresses it against base
// and returns the saved relative payload.
func relativePayload(t testing.TB, base *Index, tenText []byte) []byte {
	t.Helper()
	tenant, err := Build(tenText, Options{OccRate: 4, SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := MakeRelative(base, tenant)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rel.WriteRelativeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMakeRelativeConcurrent builds two tenants against one base at
// once and requires each payload to equal its serial build: every
// build owns its aligner scratch, so concurrent builds share nothing
// mutable (run under -race by make race).
func TestMakeRelativeConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(308))
	baseText := randomRanks(rng, 20000)
	base, err := Build(baseText, Options{OccRate: 4, SARate: 8})
	if err != nil {
		t.Fatal(err)
	}
	texts := [][]byte{mutateRanks(rng, baseText, 0.01), mutateRanks(rng, baseText, 0.03)}
	var got [2][]byte
	var wg sync.WaitGroup
	for i := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = relativePayload(t, base, texts[i])
		}()
	}
	wg.Wait()
	for i, text := range texts {
		if want := relativePayload(t, base, text); !bytes.Equal(got[i], want) {
			t.Fatalf("tenant %d: concurrent build differs from the serial one", i)
		}
	}
}

// BenchmarkMakeRelative aligns a 256 KiB tenant, 1% apart, against its
// base: the context DFS, the Myers diffs and the delta freeze.
func BenchmarkMakeRelative(b *testing.B) {
	rng := rand.New(rand.NewSource(309))
	baseText := randomRanks(rng, 256<<10)
	base, err := Build(baseText, Options{})
	if err != nil {
		b.Fatal(err)
	}
	tenant, err := Build(mutateRanks(rng, baseText, 0.01), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tenant.N()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MakeRelative(base, tenant); err != nil {
			b.Fatal(err)
		}
	}
}
