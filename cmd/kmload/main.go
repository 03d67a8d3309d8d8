// Command kmload drives a kmserved worker or cluster coordinator with
// duplicate-heavy concurrent search traffic and reports latency
// quantiles plus the server's own counters. It exists to exercise the
// cluster tier's coalescing, hot-results cache and load-shedding under
// realistic skew: patterns are drawn from a fixed pool with a Zipf
// distribution, so a small set of hot reads dominates — exactly the
// traffic shape the coordinator's cache is built for.
//
//	kmload -url http://127.0.0.1:8080 -index hg -k 2 \
//	    -clients 64 -requests 500 -batch 32 -genome g.fa -out report.json
//
// The JSON report carries client-side p50/p90/p99 batch latency (from
// an internal/obs histogram), throughput, error and shed counts, and a
// scrape of the target's /metrics.json so cache hit rates land in the
// same document.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bwtmatch"
	"bwtmatch/internal/obs"
	"bwtmatch/internal/seqio"
	"bwtmatch/server"
	"bwtmatch/server/client"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "kmserved or coordinator base URL")
	index := flag.String("index", "", "index name to search (required unless -indexes)")
	indexes := flag.String("indexes", "", "comma-separated index names; each batch targets one, Zipf-skewed toward the first — multi-tenant traffic (overrides -index)")
	k := flag.Int("k", 2, "mismatch budget")
	method := flag.String("method", "a", "search method ("+server.MethodTokens()+")")
	clients := flag.Int("clients", 32, "concurrent client goroutines")
	requests := flag.Int("requests", 200, "total batches to send across all clients")
	batch := flag.Int("batch", 16, "reads per batch")
	genome := flag.String("genome", "", "FASTA/FASTQ file to sample patterns from (default: random patterns)")
	patLen := flag.Int("pattern-len", 50, "pattern length")
	pool := flag.Int("pool", 256, "distinct patterns in the pool")
	zipfS := flag.Float64("zipf", 1.3, "Zipf skew over the pool (<=1 means uniform)")
	mutate := flag.Int("mutate", 1, "substitutions injected into each pool pattern")
	seed := flag.Int64("seed", 1, "sampling seed")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request client timeout")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	traceOut := flag.String("trace", "", "after the run, send one forced-trace batch (X-Km-Trace) and write its Chrome timeline JSON here (open in chrome://tracing or Perfetto)")
	flag.Parse()

	names := indexList(*index, *indexes)
	if len(names) == 0 {
		fatal(fmt.Errorf("-index or -indexes is required"))
	}
	if *clients < 1 || *requests < 1 || *batch < 1 || *pool < 1 || *patLen < 1 {
		fatal(fmt.Errorf("-clients, -requests, -batch, -pool and -pattern-len must be positive"))
	}

	patterns, err := buildPool(*genome, *pool, *patLen, *mutate, *seed)
	if err != nil {
		fatal(err)
	}

	hist := obs.NewShardedLatencyHistogram()
	var (
		sent, reads, matches atomic.Int64
		readErrs, reqErrs    atomic.Int64
		shed, partialBatches atomic.Int64
		remaining            atomic.Int64
	)
	remaining.Store(int64(*requests))
	indexBatches := make([]atomic.Int64, len(names))

	ctx := context.Background()
	c := client.New(*url, client.WithTimeout(*timeout), client.WithRetries(3, 25*time.Millisecond))
	if err := c.Health(ctx); err != nil {
		fatal(fmt.Errorf("target %s not healthy: %w", *url, err))
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			pick := sampler(rng, *zipfS, len(patterns))
			// Per-batch tenant pick, Zipf-skewed toward the first name —
			// the hot-tenant/cold-tenant shape a multi-tenant registry
			// (shared relative bases, LRU eviction) is sized for.
			ipick := sampler(rng, *zipfS, len(names))
			for remaining.Add(-1) >= 0 {
				target := ipick()
				req := server.SearchRequest{Index: names[target], K: *k, Method: *method,
					Reads: make([]server.Read, *batch)}
				for i := range req.Reads {
					req.Reads[i] = server.Read{Seq: patterns[pick()]}
				}
				indexBatches[target].Add(1)
				t0 := time.Now()
				resp, err := c.Search(ctx, req)
				if err != nil {
					reqErrs.Add(1)
					if client.StatusCode(err) == 503 {
						shed.Add(1)
					}
					continue
				}
				hist.Observe(time.Since(t0))
				sent.Add(1)
				reads.Add(int64(resp.Reads))
				matches.Add(int64(resp.Matches))
				readErrs.Add(int64(resp.Errors))
				if resp.Partial {
					partialBatches.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	serverMetrics, err := c.Metrics(ctx)
	if err != nil {
		serverMetrics = map[string]any{"scrape_error": err.Error()}
	}

	if *traceOut != "" {
		if err := captureTrace(ctx, c, *traceOut, names[0], *k, *method, *batch, patterns); err != nil {
			fatal(err)
		}
	}

	byIndex := make(map[string]int64, len(names))
	for i, name := range names {
		byIndex[name] = indexBatches[i].Load()
	}

	report := map[string]any{
		"config": map[string]any{
			"url": *url, "index": *index, "indexes": names, "k": *k, "method": *method,
			"clients": *clients, "requests": *requests, "batch": *batch,
			"pool": *pool, "pattern_len": *patLen, "zipf": *zipfS,
			"mutate": *mutate, "seed": *seed, "genome": *genome,
		},
		"elapsed_sec":      elapsed.Seconds(),
		"batches_ok":       sent.Load(),
		"reads":            reads.Load(),
		"matches":          matches.Load(),
		"read_errors":      readErrs.Load(),
		"request_errors":   reqErrs.Load(),
		"shed_503":         shed.Load(),
		"partial_batches":  partialBatches.Load(),
		"batches_by_index": byIndex,
		"batches_per_sec":  float64(sent.Load()) / elapsed.Seconds(),
		"reads_per_sec":    float64(reads.Load()) / elapsed.Seconds(),
		"latency_ms": map[string]any{
			"p50": hist.Quantile(0.50), "p90": hist.Quantile(0.90),
			"p99": hist.Quantile(0.99), "mean": mean(hist),
		},
		"latency_histogram": hist.Snapshot(),
		"server_metrics":    serverMetrics,
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"note": "wall-clock latencies include client-side goroutine scheduling; " +
			"on a single-CPU container all clients, the coordinator and the workers " +
			"contend for one core, so quantiles measure the stack under contention, " +
			"not isolated server latency",
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "kmload: %d batches (%d reads) in %v, p50=%.1fms p99=%.1fms, %d errors, %d shed\n",
		sent.Load(), reads.Load(), elapsed.Round(time.Millisecond),
		hist.Quantile(0.50), hist.Quantile(0.99), reqErrs.Load(), shed.Load())
}

// captureTrace sends one batch with the trace flag forced on the
// context (the client turns it into X-Km-Trace: 1), renders the span
// fragments the target returned — against a coordinator that is the
// whole cross-process timeline, coordinator plus workers — as a Chrome
// trace-event file, and validates the document before declaring
// success. The reads are the pool patterns reversed: after the load
// run every pool pattern sits in the coordinator's hot-results cache,
// and a fully cached batch would trace no fan-out at all.
func captureTrace(ctx context.Context, c *client.Client, path, index string, k int, method string, batch int, patterns []string) error {
	req := server.SearchRequest{Index: index, K: k, Method: method,
		Reads: make([]server.Read, batch)}
	for i := range req.Reads {
		p := []byte(patterns[i%len(patterns)])
		for a, b := 0, len(p)-1; a < b; a, b = a+1, b-1 {
			p[a], p[b] = p[b], p[a]
		}
		req.Reads[i] = server.Read{Seq: string(p)}
	}
	rid := fmt.Sprintf("kmload-trace-%d", os.Getpid())
	tctx := obs.WithTraceRequest(obs.WithRequestID(ctx, rid))
	resp, err := c.Search(tctx, req)
	if err != nil {
		return fmt.Errorf("traced batch: %w", err)
	}
	if len(resp.Trace) == 0 {
		return fmt.Errorf("traced batch returned no span fragments (rid %s); is the target a current kmserved/coordinator?", resp.RequestID)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTraceMulti(&buf, resp.Trace); err != nil {
		return err
	}
	if err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("rendered trace invalid: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "kmload: wrote %d-fragment trace (rid %s) to %s\n",
		len(resp.Trace), resp.RequestID, path)
	return nil
}

// indexList resolves the target index names: the comma-separated
// -indexes list when given, else the single -index.
func indexList(index, indexes string) []string {
	if indexes == "" {
		if index == "" {
			return nil
		}
		return []string{index}
	}
	var names []string
	for _, n := range strings.Split(indexes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// sampler returns a pool-index generator: Zipf-skewed when s > 1 (rank
// 0 hottest), uniform otherwise.
func sampler(rng *rand.Rand, s float64, n int) func() int {
	if s > 1 && n > 1 {
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

// buildPool materializes the fixed pattern pool the whole run samples
// from. With a genome file, patterns are real substrings (mutated by
// -mutate substitutions so k>0 has work to do); otherwise uniform
// random acgt strings.
func buildPool(genomePath string, pool, patLen, mutate int, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	const bases = "acgt"
	patterns := make([]string, pool)
	var src []byte
	if genomePath != "" {
		f, err := os.Open(genomePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, err := seqio.NewReader(f).ReadAll()
		if err != nil {
			return nil, fmt.Errorf("reading %q: %w", genomePath, err)
		}
		for _, rec := range recs {
			clean, _ := bwtmatch.Sanitize(rec.Seq)
			src = append(src, clean...)
		}
		if len(src) < patLen {
			return nil, fmt.Errorf("genome %q has %d bases, need at least -pattern-len=%d", genomePath, len(src), patLen)
		}
	}
	for i := range patterns {
		p := make([]byte, patLen)
		if src != nil {
			copy(p, src[rng.Intn(len(src)-patLen+1):])
			for m := 0; m < mutate; m++ {
				p[rng.Intn(patLen)] = bases[rng.Intn(4)]
			}
		} else {
			for j := range p {
				p[j] = bases[rng.Intn(4)]
			}
		}
		patterns[i] = string(p)
	}
	return patterns, nil
}

func mean(h *obs.ShardedHistogram) float64 {
	if n := h.Count(); n > 0 {
		return h.SumMS() / float64(n)
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kmload:", err)
	os.Exit(1)
}
