package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/naive"
)

// tinyConfig keeps harness tests fast: ~64 KiB largest genome, few reads.
func tinyConfig() Config { return Config{Scale: 256, Reads: 3, Seed: 1} }

func TestSpecs(t *testing.T) {
	specs := Specs(1)
	if len(specs) != 5 {
		t.Fatalf("%d specs", len(specs))
	}
	if specs[0].Bases != 16<<20 {
		t.Errorf("largest genome %d bases", specs[0].Bases)
	}
	for i := 1; i < len(specs); i++ {
		if specs[i].Bases >= specs[i-1].Bases {
			t.Errorf("sizes not decreasing at %d", i)
		}
	}
	if Specs(0)[0].Bases != 16<<20 {
		t.Error("scale 0 not clamped to 1")
	}
}

func TestBuildCorpusAndReads(t *testing.T) {
	spec := Specs(512)[4] // smallest genome, 2 KiB
	c, err := BuildCorpus(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Ranks) != spec.Bases || c.Index.Len() != spec.Bases {
		t.Fatalf("corpus size mismatch")
	}
	reads, err := c.Reads(50, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 4 || len(reads[0]) != 50 {
		t.Fatalf("reads shape wrong")
	}
	// Reads must be mappable back into the genome with a loose budget.
	for _, r := range reads {
		ms, err := bwtmatch.Search(c.Index, r, 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 {
			t.Fatalf("simulated read unmappable at k=6")
		}
	}
}

func TestRunDispatch(t *testing.T) {
	for _, id := range Experiments() {
		if id == "table2" || id == "fig12" || id == "fig13" {
			continue // covered separately / slower
		}
		var buf bytes.Buffer
		if err := Run(id, &buf, tinyConfig()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "#") {
			t.Fatalf("%s produced no header:\n%s", id, buf.String())
		}
	}
	if err := Run("nope", &bytes.Buffer{}, tinyConfig()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable2SmallGrid(t *testing.T) {
	// Run table2 on a tiny corpus; it reads Algorithm A's n′ end to end.
	var buf bytes.Buffer
	cfg := Config{Scale: 1024, Reads: 2, Seed: 2}
	if err := Table2(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2+4 { // header comment + column header + 4 rows
		t.Fatalf("unexpected table2 output:\n%s", buf.String())
	}
}

// TestTimeMethodExcludesPrepare pins that a method's preparation, such
// as Cole's suffix tree, stays off the clock: a method whose build
// sleeps 100 ms and whose search returns at once times under 100 ms.
func TestTimeMethodExcludesPrepare(t *testing.T) {
	const build = 100 * time.Millisecond
	sleepy := Method{Name: "sleepy", Prepare: func(*Corpus) (Search, error) {
		time.Sleep(build)
		return func([]byte, int) ([]bwtmatch.Match, error) { return nil, nil }, nil
	}}
	d, _, err := TimeMethod(&Corpus{}, [][]byte{[]byte("acgt"), []byte("ttga")}, 1, sleepy)
	if err != nil {
		t.Fatal(err)
	}
	if d >= build {
		t.Fatalf("TimeMethod = %v, includes the %v build", d, build)
	}
}

// TestMethodsAgree runs every method of the experiments, the two
// text-scanning baselines included, on one corpus: each returns the
// oracle's matches, and a baseline builds its structure once per corpus.
func TestMethodsAgree(t *testing.T) {
	c, err := BuildCorpus(Specs(512)[4])
	if err != nil {
		t.Fatal(err)
	}
	reads, err := c.Reads(40, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	methods := append(slices.Clone(Methods), IndexMethod(bwtmatch.STree),
		IndexMethod(bwtmatch.AlgorithmANoPhi), IndexMethod(bwtmatch.Seed))
	for _, k := range []int{0, 2, 4} {
		for _, r := range reads {
			p, _ := alphabet.Encode(r)
			var want []bwtmatch.Match
			for _, q := range naive.Find(c.Ranks, p, k) {
				want = append(want, bwtmatch.Match{Pos: int(q), Mismatches: naive.Hamming(c.Ranks[q:int(q)+len(p)], p, len(p))})
			}
			for _, m := range methods {
				search, err := m.Prepare(c)
				if err != nil {
					t.Fatal(err)
				}
				got, err := search(r, k)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%v k=%d: %v (%v), want %v", m, k, got, err, want)
				}
			}
		}
	}
	tree, matcher := c.cole, c.amir
	for _, m := range []Method{Amir, Cole} {
		if _, err := m.Prepare(c); err != nil {
			t.Fatal(err)
		}
	}
	if tree == nil || matcher == nil || c.cole != tree || c.amir != matcher {
		t.Error("a baseline rebuilt its structure for the same corpus")
	}
}

func TestFig13Small(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig13(&buf, Config{Scale: 1024, Reads: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"layout", "rate4", "rate32"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("fig13 output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestFig12Small(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig12(&buf, Config{Scale: 2048, Reads: 2, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"rat-sim", "cmerolae-sim"} {
		if !strings.Contains(out, name) {
			t.Fatalf("fig12 missing %s:\n%s", name, out)
		}
	}
}

// TestRunJSONShardedCells: the JSON report carries a sharded-layout
// twin for every monolithic cell with identical match counts, plus the
// build wall-clock fields that document the Amdahl trade.
func TestRunJSONShardedCells(t *testing.T) {
	var buf bytes.Buffer
	if err := RunJSON(&buf, tinyConfig(), 1, nil); err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.BuildNS <= 0 || rep.ShardedBuildNS <= 0 || rep.BuildShards != jsonShards || rep.BuildGOMAXPROCS < 1 {
		t.Errorf("build fields unset: %+v", rep)
	}
	mono := map[string]int{}
	shardedCells := 0
	for _, r := range rep.Results {
		key := fmt.Sprintf("%s/k=%d", r.Method, r.K)
		switch r.Experiment {
		case "search":
			mono[key] = r.Matches
		case "search-sharded":
			shardedCells++
			want, ok := mono[key]
			if !ok {
				t.Errorf("sharded cell %s has no monolithic twin", key)
			} else if r.Matches != want {
				t.Errorf("%s: sharded %d matches, monolithic %d", key, r.Matches, want)
			}
		default:
			t.Errorf("unexpected experiment %q", r.Experiment)
		}
	}
	if shardedCells == 0 || shardedCells != len(mono) {
		t.Errorf("%d sharded cells vs %d monolithic", shardedCells, len(mono))
	}
}
