package bwtmatch_test

import (
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRelativeSmoke drives the multi-tenant relative pipeline end to
// end through the real binaries: kmgen builds a base index and three
// delta-compressed tenant containers against it, kmsearch loads a
// tenant transparently and agrees with a standalone build of the same
// tenant genome, and kmserved registers all three tenants sharing one
// resident base, with the delta accounting visible in /v1/indexes and
// the km_relative_* Prometheus series. `make relative-smoke` runs
// exactly this.
func TestRelativeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := t.TempDir()
	for _, name := range []string{"kmgen", "kmsearch", "kmserved"} {
		bin := filepath.Join(bins, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	work := t.TempDir()
	baseFA := filepath.Join(work, "base.fa")
	baseKM := filepath.Join(work, "base.km")
	reads := filepath.Join(work, "reads.fq")

	// Base genome plus its monolithic index in one kmgen call.
	const baseBases = 32768
	run(t, filepath.Join(bins, "kmgen"),
		"-genome", baseFA, "-bases", strconv.Itoa(baseBases), "-seed", "7", "-index", baseKM)
	// The servers below resolve the base from the containers' path hint
	// and keep its 2-bit BWT and occ checkpoints (four int32 counts per
	// 32 rows) alone; that is what they charge for it.
	rows := baseBases + 1
	baseCharge := strconv.Itoa((rows+31)/32*8 + (rows/32+1)*4*4)

	// Three tenant genomes, each the base at ~1% substitution divergence,
	// and a relative container for each against the shared base.
	tenantFAs := make([]string, 3)
	tenantKMs := make([]string, 3)
	for i := range tenantFAs {
		tenantFAs[i] = filepath.Join(work, "tenant"+string(rune('1'+i))+".fa")
		tenantKMs[i] = filepath.Join(work, "tenant"+string(rune('1'+i))+".km")
		mutateFASTA(t, baseFA, tenantFAs[i], 0.01, int64(100+i))
		out := run(t, filepath.Join(bins, "kmgen"),
			"-index", tenantKMs[i], "-from", tenantFAs[i],
			"-relative", "-base", baseKM)
		if !strings.Contains(out, "built relative index against") ||
			!strings.Contains(out, "("+baseCharge+" base-index bytes shared)") {
			t.Fatalf("kmgen relative output, want a %s-byte base share: %s", baseCharge, out)
		}
	}

	// Reads simulated from tenant 1; the relative container must answer
	// them byte-identically to a standalone index over the same genome.
	run(t, filepath.Join(bins, "kmgen"),
		"-reads", reads, "-from", tenantFAs[0], "-length", "80", "-count", "25", "-seed", "8")
	standaloneOut := run(t, filepath.Join(bins, "kmsearch"),
		"-genome", tenantFAs[0], "-reads", reads, "-k", "3", "-v")
	relativeOut := run(t, filepath.Join(bins, "kmsearch"),
		"-index", tenantKMs[0], "-reads", reads, "-k", "3", "-v")
	if extractMatches(standaloneOut) != extractMatches(relativeOut) {
		t.Fatalf("relative index disagrees with standalone:\n%s\nvs\n%s",
			standaloneOut, relativeOut)
	}

	// kmserved: register the three tenant containers (the base resolves
	// from the recorded path hint and is shared by fingerprint), search
	// one, and check the accounting surfaces.
	daemon := exec.Command(filepath.Join(bins, "kmserved"),
		"-addr", "127.0.0.1:0",
		"-load", "t1="+tenantKMs[0], "-load", "t2="+tenantKMs[1], "-load", "t3="+tenantKMs[2])
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { daemon.Process.Kill(); daemon.Wait() })
	base := awaitListening(t, stdout)

	resp, err := http.Post(base+"/v1/search", "application/json",
		strings.NewReader(`{"index":"t2","k":2,"seq":"acgtacgtacgtacgt"}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, body)
	}

	list := getBody(t, base+"/v1/indexes")
	for _, want := range []string{`"base":"`, `"delta_bytes":`, `"shared_base_bytes":`} {
		if !strings.Contains(list, want) {
			t.Fatalf("/v1/indexes missing %s: %s", want, list)
		}
	}
	// All three tenants must report the same base fingerprint — one
	// resident base, not three copies.
	fps := regexp.MustCompile(`"base":"([0-9a-f]+)"`).FindAllStringSubmatch(list, -1)
	if len(fps) != 3 {
		t.Fatalf("want 3 tenants with a base fingerprint, got %d: %s", len(fps), list)
	}
	for _, m := range fps[1:] {
		if m[1] != fps[0][1] {
			t.Fatalf("tenants disagree on base fingerprint: %s", list)
		}
	}
	shared := regexp.MustCompile(`"shared_base_bytes":(\d+)`).FindAllStringSubmatch(list, -1)
	if len(shared) != 3 {
		t.Fatalf("want shared_base_bytes on 3 tenants, got %d: %s", len(shared), list)
	}
	for _, m := range shared {
		if m[1] != baseCharge {
			t.Fatalf("shared_base_bytes %s, want the base's BWT plus checkpoints %s: %s", m[1], baseCharge, list)
		}
	}

	metrics := getBody(t, base+"/metrics")
	if !strings.Contains(metrics, `km_relative_tenants{base="`+fps[0][1]+`"} 3`) {
		t.Errorf("missing km_relative_tenants gauge of 3 in /metrics:\n%s", metrics)
	}
	for _, want := range []string{
		`km_relative_base_bytes{base="` + fps[0][1] + `"} ` + baseCharge + "\n",
		`km_relative_delta_bytes{index="t1",base="` + fps[0][1] + `"} `,
		`km_relative_delta_bytes{index="t3",base="` + fps[0][1] + `"} `,
		`km_relative_base_hits_total{index="t2"} `,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, metrics)
		}
	}
}

// mutateFASTA copies a FASTA file substituting each base with rate
// probability — a synthetic tenant at a controlled divergence from the
// reference. Headers and line structure are preserved.
func mutateFASTA(t *testing.T, src, dst string, rate float64, seed int64) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	const bases = "ACGT"
	lines := strings.Split(string(data), "\n")
	for li, line := range lines {
		if strings.HasPrefix(line, ">") {
			continue
		}
		b := []byte(line)
		for i, c := range b {
			if rng.Float64() >= rate {
				continue
			}
			cur := strings.IndexByte(bases, c&^0x20) // uppercase lookup
			if cur < 0 {
				continue
			}
			b[i] = bases[(cur+1+rng.Intn(3))%4]
		}
		lines[li] = string(b)
	}
	if err := os.WriteFile(dst, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}
