package bwtmatch_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"bwtmatch"
	"bwtmatch/internal/obs"
)

// repeatHeavyTarget spreads noisy copies of one 300 bp family across a
// random genome (the dense-region configuration of the core derivation
// tests). Recurring BWT intervals there make Algorithm A's M-tree
// memoization fire (Stats.MemoHits > 0), which a uniform random target
// almost never does at test sizes.
func repeatHeavyTarget(t *testing.T, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1001))
	g := make([]byte, n)
	for i := range g {
		g[i] = "acgt"[rng.Intn(4)]
	}
	const unit = 300
	for covered := 0; covered < n*2/5; covered += unit {
		src, dst := 1000, rng.Intn(n-unit)
		for i := 0; i < unit; i++ {
			if rng.Intn(33) == 0 {
				g[dst+i] = "acgt"[rng.Intn(4)]
			} else {
				g[dst+i] = g[src+i]
			}
		}
	}
	return g
}

// TestTracerEventCountsMatchStats pins the tracing contract: the
// recorded instant events are exactly the paper's work counters. Every
// Stats.MTreeLeaves increment emits one EvLeaf and every Stats.MemoHits
// one EvMerge — so a timeline is a faithful expansion of the aggregate
// counters, never an estimate.
func TestTracerEventCountsMatchStats(t *testing.T) {
	target := repeatHeavyTarget(t, 1<<16)
	idx, err := bwtmatch.New(target)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	sawMemoHit := false
	for _, method := range []bwtmatch.Method{bwtmatch.AlgorithmA, bwtmatch.AlgorithmANoPhi, bwtmatch.BWTBaseline, bwtmatch.STree} {
		for trial := 0; trial < 3; trial++ {
			p := rng.Intn(len(target) - 60)
			pat := append([]byte(nil), target[p:p+60]...)
			pat[rng.Intn(60)] = "acgt"[rng.Intn(4)]
			pat[rng.Intn(60)] = "acgt"[rng.Intn(4)]

			rec := obs.NewRecorder()
			matches, stats, err := idx.SearchMethodTraced(pat, 8, method, rec)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.CountKind(obs.EvLeaf); got != stats.MTreeLeaves {
				t.Errorf("%v trial %d: %d EvLeaf events, Stats.MTreeLeaves = %d", method, trial, got, stats.MTreeLeaves)
			}
			if got := rec.CountKind(obs.EvMerge); got != stats.MemoHits {
				t.Errorf("%v trial %d: %d EvMerge events, Stats.MemoHits = %d", method, trial, got, stats.MemoHits)
			}
			if b, e := rec.CountKind(obs.EvBegin), rec.CountKind(obs.EvEnd); b != e {
				t.Errorf("%v trial %d: unbalanced spans: %d begins, %d ends", method, trial, b, e)
			}
			sawMemoHit = sawMemoHit || stats.MemoHits > 0

			// Tracing must not change the answer or the work done.
			plain, plainStats, err := bwtmatch.SearchMethod(idx, pat, 8, method)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain) != len(matches) {
				t.Fatalf("%v trial %d: traced found %d matches, untraced %d", method, trial, len(matches), len(plain))
			}
			// LocateNS is wall time and legitimately differs run to run.
			plainStats.LocateNS, stats.LocateNS = 0, 0
			if plainStats != stats {
				t.Errorf("%v trial %d: traced stats %+v != untraced %+v", method, trial, stats, plainStats)
			}
		}
	}
	if !sawMemoHit {
		t.Error("no trial exercised the merge path (MemoHits stayed 0); grow the repeat structure")
	}
}

// TestTraceChromeExport checks a recorded search renders as loadable
// Chrome trace-event JSON (the kmsearch/kmbench -trace output schema).
func TestTraceChromeExport(t *testing.T) {
	target := repeatHeavyTarget(t, 1<<12)
	idx, err := bwtmatch.New(target)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, _, err := idx.SearchMethodTraced(target[100:160], 2, bwtmatch.AlgorithmA, rec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkChromeTrace(t, buf.Bytes())
}

// checkChromeTrace validates Chrome trace-event JSON structurally: the
// schema about:tracing and Perfetto expect (also used by the CLI e2e
// test against kmsearch -trace output).
func checkChromeTrace(t *testing.T, data []byte) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			TS   *float64         `json:"ts"`
			PID  int              `json:"pid"`
			TID  int              `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	begins, ends := 0, 0
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			begins++
		case "E":
			ends++
		case "i":
		default:
			t.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
		if e.Ph != "E" && e.Name == "" {
			t.Errorf("event %d: empty name", i)
		}
		if e.TS == nil || *e.TS < 0 {
			t.Errorf("event %d: missing or negative ts", i)
		}
		if e.PID == 0 || e.TID == 0 {
			t.Errorf("event %d: zero pid/tid", i)
		}
	}
	if begins != ends {
		t.Errorf("unbalanced spans: %d B events, %d E events", begins, ends)
	}
}

// BenchmarkTracerOverhead shows what tracing costs: "disabled" is the
// production path (nil Tracer, one predictable branch per potential
// event — the committed BENCH_obs_*.json pair pins it within noise of
// the pre-instrumentation build), "recording" pays for a live Recorder.
func BenchmarkTracerOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	target := make([]byte, 1<<16)
	for i := range target {
		target[i] = "acgt"[rng.Intn(4)]
	}
	idx, err := bwtmatch.New(target)
	if err != nil {
		b.Fatal(err)
	}
	pat := append([]byte(nil), target[1000:1100]...)
	pat[50] = 'a'

	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := idx.SearchMethodTraced(pat, 4, bwtmatch.AlgorithmA, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recording", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := idx.SearchMethodTraced(pat, 4, bwtmatch.AlgorithmA, obs.NewRecorder()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
