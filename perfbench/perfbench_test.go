package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		pct  int
		want float64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.pct); got != c.want {
			t.Errorf("p%d of 1..100 = %v, want %v", c.pct, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("p90 of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {nil, 0}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median of %v = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestBeyondSupportsP90(t *testing.T) {
	for _, c := range []struct{ n, pct, want int }{
		{100, 90, 10}, // the least sample p90 has ten beyond
		{99, 90, 9},
		{1000, 90, 100},
		{10, 50, 5},
		{0, 90, 0},
	} {
		if got := beyond(c.n, c.pct); got != c.want {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.pct, got, c.want)
		}
	}
}

func TestWindowsCutInAnswerOrder(t *testing.T) {
	t0 := time.Now()
	batches := func(n int) []batchTime {
		bs := make([]batchTime, n)
		for i := range bs {
			bs[i] = batchTime{end: t0.Add(time.Duration(i) * time.Millisecond), cpu: float64(i)}
		}
		return bs
	}
	for _, c := range []struct{ n, windows, least int }{
		{99, 1, 99},   // too few for two windows of 100
		{250, 2, 125}, // every window keeps 100 or more
		{1000, 10, 100},
		{5000, maxWindows, 5000 / maxWindows},
	} {
		ws := windows(batches(c.n))
		total := 0
		for _, w := range ws {
			if len(w) < c.least {
				t.Errorf("%d batches: a window of %d, want at least %d", c.n, len(w), c.least)
			}
			total += len(w)
		}
		if len(ws) != c.windows || total != c.n {
			t.Errorf("%d batches: %d windows holding %d, want %d holding all", c.n, len(ws), total, c.windows)
		}
	}

	// Two callers' batches, appended one caller after the other, are
	// windowed in the order they were answered.
	bs := batches(200)
	ws := windows(append(slices.Clone(bs[100:]), bs[:100]...))
	if ws[0][0].cpu != 0 || ws[1][99].cpu != 199 {
		t.Errorf("windows start at batch %v and end at %v, want 0 and 199", ws[0][0].cpu, ws[1][99].cpu)
	}

	// One slow window of five moves the pooled p90 but not the median
	// of the windows' p90s.
	bs = batches(500)
	for i := range bs {
		bs[i].cpu = float64(1 + i%100)
		if i >= 400 {
			bs[i].cpu *= 3
		}
	}
	ph := phaseStats{batches: bs}
	if got := windowMedian(windows(bs), phaseStats.cpuP90); got != 90 {
		t.Errorf("median window p90 %v, want 90", got)
	}
	if got := ph.cpuP90(); got <= 90 {
		t.Errorf("pooled p90 %v, want it above the clean windows' 90", got)
	}
	// 100 batches of 16 reads in 5.05 CPU-seconds.
	if got := (phaseStats{batches: bs[:100]}).batchReadsPerCPUSec(); math.Abs(got-1600/5.05) > 1e-9 {
		t.Errorf("window reads per CPU-second %v, want %v", got, 1600/5.05)
	}
}

func TestScaleBatchesByNearestSamples(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// The 400 at 1 s is a short burst: the median of it and its
	// neighbours puts the host back at 200 there.
	refs := []refSample{{at(0), 200}, {at(1000), 400}, {at(2000), 200}, {at(3000), 100}}
	for _, c := range []struct {
		end  int
		want float64 // scale applied to the batch's CPU time
	}{
		{-1000, refNominalNS / 300}, // before the first sample: median of 200 and 400
		{900, refNominalNS / 200},
		{1600, refNominalNS / 200},
		{3400, refNominalNS / 150}, // after the last: median of 200 and 100
	} {
		got := scaleBatches([]batchTime{{end: at(c.end), lat: 5, cpu: 10}}, refs)[0]
		if math.Abs(got.cpu-10*c.want) > 1e-9 || got.lat != 5 {
			t.Errorf("batch answered at %d ms scaled to cpu %v lat %v, want cpu %v lat 5", c.end, got.cpu, got.lat, 10*c.want)
		}
	}
}

func TestHostRefSamplesBetweenBatches(t *testing.T) {
	h := newHostRef()
	stop := h.sampleEvery(5 * time.Millisecond)
	var wg sync.WaitGroup
	var batches atomic.Int64
	deadline := time.Now().Add(100 * time.Millisecond)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				h.busy()
				if h.mu.TryLock() {
					t.Error("a sample could start during a batch")
				}
				batches.Add(1)
				h.idle()
			}
		}()
	}
	wg.Wait()
	refs, err := stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) < 2 || batches.Load() == 0 {
		t.Fatalf("%d samples and %d batches, want at least 2 and 1", len(refs), batches.Load())
	}
	for i, s := range refs {
		if s.ns <= 0 || (i > 0 && !s.at.After(refs[i-1].at)) {
			t.Errorf("sample %d: %v ns per step at %v after %v", i, s.ns, s.at, refs[max(i-1, 0)].at)
		}
	}
	var none *hostRef
	none.busy()
	none.idle()
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := newLane(time.Now(), 1, 10)
	l.Begin("batch")
	l.Begin("read")
	l.Add("phi", 0, 2*time.Millisecond)
	l.Add("locate", 0, 3*time.Millisecond)
	time.Sleep(6 * time.Millisecond)
	l.End()
	l.End()
	read, batch := l.totals["read"], l.totals["batch"]
	if read.self != read.total-5*time.Millisecond {
		t.Errorf("read self %v, want total %v minus 5ms", read.self, read.total)
	}
	if batch.self != batch.total-read.total {
		t.Errorf("batch self %v, want total %v minus read %v", batch.self, batch.total, read.total)
	}
	p := merge(l)
	var self time.Duration
	for _, s := range p.spans {
		self += s.self
	}
	if self != batch.total {
		t.Errorf("self times sum to %v, want the root's %v", self, batch.total)
	}
	if got := selfTime(time.Millisecond, 2*time.Millisecond); got != 0 {
		t.Errorf("self time of a span its children overrun = %v, want 0", got)
	}
	if len(l.kept) != 4 || l.dropped != 0 {
		t.Errorf("kept %d spans, dropped %d; want 4 and 0", len(l.kept), l.dropped)
	}
}

func TestLaneSumsEventsAndArgs(t *testing.T) {
	a, b := newLane(time.Now(), 1, 1), newLane(time.Now(), 2, 1)
	for _, l := range []*lane{a, b} {
		l.Begin("traverse")
		l.End(obs.Arg{Key: "leaves", Val: 3}, obs.Arg{Key: "step_calls", Val: 7})
		l.Emit(obs.EvLocate, obs.Arg{Key: "rows", Val: 1}, obs.Arg{Key: "lf_steps", Val: 5})
	}
	a.Begin("traverse")
	a.End(obs.Arg{Key: "leaves", Val: 1})
	p := merge(a, b)
	tr := p.spans["traverse"]
	if tr.count != 3 || argVal(tr.args, "leaves") != 7 || argVal(tr.args, "step_calls") != 14 {
		t.Errorf("traverse totals %+v, want 3 spans, 7 leaves, 14 steps", tr)
	}
	if p.events[obs.EvLocate] != 2 || argVal(p.evArgs[obs.EvLocate], "lf_steps") != 10 {
		t.Errorf("locate events %d lf_steps %d, want 2 and 10",
			p.events[obs.EvLocate], argVal(p.evArgs[obs.EvLocate], "lf_steps"))
	}
	if a.dropped != 1 {
		t.Errorf("lane kept past its cap: dropped %d, want 1", a.dropped)
	}
	var nilLane *lane
	nilLane.Begin("x")
	nilLane.End()
	nilLane.Emit(obs.EvLocate)
}

func TestGateRejectsPlantedWrongMatch(t *testing.T) {
	// The read differs from the window at 200 in one base and from a
	// planted copy at 262 in two.
	const window = "gattacacatggcatgcaacgt"
	copy2 := []byte(window)
	copy2[10] = 'a'
	text := []byte(strings.Repeat("acgtt", 40) + window + strings.Repeat("ttgca", 8) + string(copy2) + strings.Repeat("ttgca", 40))
	read := []byte(window)
	read[3] = 'c'
	good := []hit{{200, 1}}
	if err := checkHits(text, read, 1, good); err != nil {
		t.Fatalf("true occurrence rejected: %v", err)
	}
	if err := checkComplete(text, read, 1, good); err != nil {
		t.Fatalf("complete answer rejected: %v", err)
	}
	for name, hits := range map[string][]hit{
		"wrong mismatch count": {{200, 0}},
		"wrong position":       {{17, 1}},
		"beyond the text":      {{len(text) - 5, 1}},
		"negative position":    {{-1, 0}},
		"repeated position":    {{200, 1}, {200, 1}},
	} {
		if err := checkHits(text, read, 1, hits); err == nil {
			t.Errorf("%s %v accepted", name, hits)
		}
	}
	if err := checkHits(text, read, 0, good); err == nil {
		t.Error("occurrence with more than k mismatches accepted")
	}
	if err := checkComplete(text, read, 2, good); err == nil {
		t.Error("answer missing the k=2 occurrence at 262 accepted as complete")
	}
	if err := checkComplete(text, read, 2, []hit{{200, 1}, {262, 2}}); err != nil {
		t.Errorf("complete k=2 answer rejected: %v", err)
	}

	g := newGate([][]byte{text}, 1, []readKey{{0, 4}})
	g.check(readKey{0, 4}, read, []hit{{17, 1}})
	if _, _, err := finish([]*gate{g}, func(readKey) []byte { return read }); err == nil {
		t.Error("gate passed a run with a planted wrong match")
	}
	g = newGate([][]byte{text}, 1, []readKey{{0, 4}})
	g.check(readKey{0, 4}, read, good)
	hits, compared, err := finish([]*gate{g}, func(readKey) []byte { return read })
	if err != nil || hits != 1 || compared != 1 {
		t.Errorf("clean run: hits %d compared %d err %v, want 1, 1, nil", hits, compared, err)
	}
	g = newGate([][]byte{text}, 1, []readKey{{0, 9}})
	if _, _, err := finish([]*gate{g}, func(readKey) []byte { return read }); err == nil {
		t.Error("gate passed with no sampled read compared")
	}
}

// The digests pin the generators: an edit to internal/dna or to the
// read model changes them, and so changes every workload.
func TestFingerprintStable(t *testing.T) {
	g, err := ratGenome(1<<14, 7)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := simulateReads(g, 64, streamSeed(7, streamReads, 0))
	if err != nil {
		t.Fatal(err)
	}
	again, err := ratGenome(1<<14, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(g) != fingerprint(again) {
		t.Fatal("the same seed generated two genomes")
	}
	const wantGenome = "f58b41a331778d42767f5c561a69706067613877d0d46ac836eef07e2fa1c7ad"
	const wantReads = "b5ca0a685d82d4b239e0ad19eb4325cdee9c61a72a124a415006882f3b391e2a"
	if got := fingerprint(g); got != wantGenome {
		t.Errorf("genome sha256 %s, want %s", got, wantGenome)
	}
	if got := fingerprint(reads...); got != wantReads {
		t.Errorf("reads sha256 %s, want %s", got, wantReads)
	}
	if fingerprint([]byte("ab"), []byte("c")) == fingerprint([]byte("a"), []byte("bc")) {
		t.Error("fingerprint ignores sequence boundaries")
	}
	m := mutate(g, 0.01, 3)
	diff := 0
	for i := range g {
		if m[i] != g[i] {
			diff++
		}
		if m[i] < alphabet.A || m[i] > alphabet.T {
			t.Fatalf("mutate wrote rank %d", m[i])
		}
	}
	if diff == 0 || diff > len(g)/100 {
		t.Errorf("mutate changed %d of %d bases at 1%%", diff, len(g))
	}
}

func TestMapGenomeFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 4 MiB workload genome")
	}
	g, err := ratGenome(mapGenomeBases, mapGenomeSeed)
	if err != nil {
		t.Fatal(err)
	}
	const want = "08e9b7697e6412501952446962e482bf31f46628d0957d633cadb42acfeb9920"
	if got := fingerprint(g); got != want {
		t.Errorf("map genome sha256 %s, want %s", got, want)
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "map-k1", "--trace", "2"},
		{"--workload", "map-k1", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code == 0 {
			t.Errorf("%v exited 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q", args, out.String())
		}
	}
}
