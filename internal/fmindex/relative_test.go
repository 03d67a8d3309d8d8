package fmindex

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"slices"
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
		// The steps the walks take: StepAll on every interval up to 70
		// rows wide and on wide ones from every third row, and
		// StepSingleton and the LF step on every row.
		var relOut, tenOut [alphabet.Bases]Interval
		for lo := int32(0); lo <= rows; lo++ {
			for hi := lo; hi <= rows && (hi-lo <= 70 || lo%3 == 0); hi += 1 + (hi-lo)/70*37 {
				rel.StepAll(Interval{lo, hi}, &relOut)
				tenant.StepAll(Interval{lo, hi}, &tenOut)
				if relOut != tenOut {
					t.Fatalf("trial %d: StepAll([%d, %d)): relative %v, standalone %v", trial, lo, hi, relOut, tenOut)
				}
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
			got := rel.Locate(gotIv, nil)
			want := tenant.Locate(wantIv, nil)
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
		// Read counters must have moved (base hits dominate at low
		// divergence).
		baseReads, insReads := rel.RelDelta().Reads()
		if baseReads == 0 {
			t.Fatal("no base reads recorded")
		}
		_ = insReads
	}
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
