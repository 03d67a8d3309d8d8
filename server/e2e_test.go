package server_test

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bwtmatch"
	"bwtmatch/server"
	"bwtmatch/server/client"
)

// startDaemon builds kmserved, starts it on an ephemeral port and
// returns its base URL plus the running process. The caller is
// responsible for signalling shutdown (or it is killed at cleanup).
func startDaemon(t *testing.T, binDir string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	bin := filepath.Join(binDir, "kmserved")
	build := exec.Command("go", "build", "-o", bin, "./cmd/kmserved")
	build.Dir = repoRoot(t)
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kmserved: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	sc := bufio.NewScanner(stdout)
	urlc := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if _, url, ok := strings.Cut(sc.Text(), "listening on "); ok {
				urlc <- url
				break
			}
		}
	}()
	select {
	case url := <-urlc:
		return url, cmd
	case <-time.After(30 * time.Second):
		t.Fatal("kmserved did not announce its address")
		return "", nil
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(dir) // server/ -> repo root
}

func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()

	// Build a genome, its saved index, and 1000 mutated reads.
	rng := rand.New(rand.NewSource(99))
	target := make([]byte, 1<<16)
	for i := range target {
		target[i] = "acgt"[rng.Intn(4)]
	}
	idx, err := bwtmatch.New(target)
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(work, "genome.bwt")
	if err := idx.SaveFile(indexPath); err != nil {
		t.Fatal(err)
	}
	const nReads = 1000
	reads := make([]server.Read, nReads)
	want := make([][]bwtmatch.Match, nReads)
	for i := range reads {
		m := 60 + rng.Intn(40)
		p := rng.Intn(len(target) - m)
		pat := append([]byte(nil), target[p:p+m]...)
		for j := 0; j < 2; j++ {
			pat[rng.Intn(m)] = "acgt"[rng.Intn(4)]
		}
		reads[i] = server.Read{ID: fmt.Sprintf("read%d", i), Seq: string(pat)}
		if want[i], err = bwtmatch.Search(idx, pat, 4); err != nil {
			t.Fatal(err)
		}
	}

	base, cmd := startDaemon(t, work)
	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	// Register the saved index over the API and verify the listing.
	info, err := c.RegisterIndex(ctx, "genome", indexPath)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if info.Bases != len(target) {
		t.Fatalf("registered %d bases, want %d", info.Bases, len(target))
	}
	if _, err := c.RegisterIndex(ctx, "genome", indexPath); client.StatusCode(err) != 409 {
		t.Errorf("duplicate register error = %v, want 409", err)
	}
	list, err := c.Indexes(ctx)
	if err != nil || len(list.Indexes) != 1 {
		t.Fatalf("indexes: %+v %v", list, err)
	}

	// Round-trip the 1000-read batch and cross-check against the library,
	// from several clients at once to exercise concurrent serving.
	var wg sync.WaitGroup
	responses := make([]*server.SearchResponse, 3)
	errs := make([]error, 3)
	for w := range responses {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			responses[w], errs[w] = c.Search(ctx, server.SearchRequest{
				Index: "genome", K: 4, Reads: reads,
			})
		}(w)
	}
	wg.Wait()
	totalMatches := 0
	for w, resp := range responses {
		if errs[w] != nil {
			t.Fatalf("client %d: %v", w, errs[w])
		}
		if resp.Reads != nReads || resp.Errors != 0 || len(resp.Results) != nReads {
			t.Fatalf("client %d response: reads=%d errors=%d", w, resp.Reads, resp.Errors)
		}
		for i, rr := range resp.Results {
			if len(rr.Matches) != len(want[i]) {
				t.Fatalf("read %d: %d matches, want %d", i, len(rr.Matches), len(want[i]))
			}
			for j, m := range rr.Matches {
				if m.Pos != want[i][j].Pos || m.Mismatches != want[i][j].Mismatches {
					t.Fatalf("read %d match %d: %+v vs %+v", i, j, m, want[i][j])
				}
			}
		}
		totalMatches += resp.Matches
	}

	// Metrics must reflect the served traffic.
	met, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if q := int(met["queries_total"].(float64)); q != 3*nReads {
		t.Errorf("queries_total = %d, want %d", q, 3*nReads)
	}
	if m := int(met["matches_total"].(float64)); m != totalMatches {
		t.Errorf("matches_total = %d, want %d", m, totalMatches)
	}
	if s := met["step_calls_total"].(float64); s == 0 {
		t.Error("step_calls_total = 0")
	}

	// kmsearch -server: the CLI as a remote client agrees with the API.
	ksBin := filepath.Join(work, "kmsearch")
	build := exec.Command("go", "build", "-o", ksBin, "./cmd/kmsearch")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kmsearch: %v\n%s", err, out)
	}
	readsPath := filepath.Join(work, "reads.txt")
	var sb strings.Builder
	for _, r := range reads[:20] {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	os.WriteFile(readsPath, []byte(sb.String()), 0o644)
	out, err := exec.Command(ksBin,
		"-server", base, "-index", "genome", "-reads", readsPath, "-k", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("kmsearch -server: %v\n%s", err, out)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !strings.HasPrefix(line, "read") {
			continue
		}
		var id string
		var n int
		if _, err := fmt.Sscanf(line, "%s %d", &id, &n); err != nil {
			t.Fatalf("kmsearch line %q: %v", line, err)
		}
		if id == fmt.Sprintf("read%d", i) && n != len(want[i]) {
			t.Errorf("kmsearch %s: %d matches, want %d", id, n, len(want[i]))
		}
	}

	// Graceful shutdown: SIGTERM drains and exits zero.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("kmserved exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("kmserved did not exit after SIGTERM")
	}
}

func TestDaemonPreload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	work := t.TempDir()
	rng := rand.New(rand.NewSource(100))
	target := make([]byte, 4096)
	for i := range target {
		target[i] = "acgt"[rng.Intn(4)]
	}
	idx, _ := bwtmatch.New(target)
	indexPath := filepath.Join(work, "g.bwt")
	if err := idx.SaveFile(indexPath); err != nil {
		t.Fatal(err)
	}

	base, _ := startDaemon(t, work, "-load", "g="+indexPath, "-budget", "64")
	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err := c.Search(ctx, server.SearchRequest{
		Index: "g", K: 1, Seq: string(target[128:168]),
	})
	if err != nil {
		t.Fatalf("search against preloaded index: %v", err)
	}
	if resp.Matches == 0 {
		t.Fatal("planted pattern not found on preloaded index")
	}
	if _, err := c.Search(ctx, server.SearchRequest{Index: "missing", Seq: "acgt"}); client.StatusCode(err) != 404 {
		t.Errorf("unknown index error = %v, want 404", err)
	}
}
