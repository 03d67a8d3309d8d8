// Command kmsearch indexes a genome and reports all k-mismatch
// occurrences of each read, one line per read:
//
//	<read-id> <matches> <pos:mismatches> ...
//
// Genomes are read from FASTA or bare-line files (multi-record FASTA is
// concatenated); reads from FASTQ, FASTA or bare lines. The index can be
// persisted so repeated runs skip construction:
//
//	kmsearch -genome g.fa -save g.bwt                # build and save
//	kmsearch -index g.bwt -reads r.fq -k 4 [-method a|bwt|stree|amir|cole|online]
//	kmsearch -genome g.fa -reads r.fq -k 4 -p 8      # 8 worker goroutines
//
// -trace records the search path of every read as Chrome trace-event
// JSON (phase spans plus the paper's leaf/merge/fallback instants):
//
//	kmsearch -genome g.fa -reads r.fq -k 4 -trace out.json
//
// With -server it acts as a remote client of a running kmserved daemon,
// in which case -index names a registered index instead of a local file:
//
//	kmsearch -server http://localhost:8080 -index hg -reads r.fq -k 4 -v
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bwtmatch"
	"bwtmatch/internal/obs"
	"bwtmatch/internal/seqio"
	"bwtmatch/server"
	"bwtmatch/server/client"
)

func main() {
	genomePath := flag.String("genome", "", "genome file (FASTA or one line of acgt)")
	indexPath := flag.String("index", "", "load a saved index instead of -genome")
	savePath := flag.String("save", "", "save the built index to this file")
	readsPath := flag.String("reads", "", "reads file (FASTQ, FASTA or one read per line)")
	k := flag.Int("k", 4, "maximum number of mismatches")
	methodName := flag.String("method", "a", "a|bwt|stree|amir|cole|online|seed")
	workers := flag.Int("p", 1, "worker goroutines")
	verbose := flag.Bool("v", false, "print per-read positions")
	sam := flag.Bool("sam", false, "emit SAM records instead of the compact format")
	serverURL := flag.String("server", "", "kmserved base URL; -index then names a registered index")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file (serializes the search)")
	buildP := flag.Int("build-p", 1, "parallel workers for index construction (-g path only)")
	flag.Parse()

	method, err := server.ParseMethod(*methodName)
	if err != nil {
		fatal(err)
	}

	if *serverURL != "" {
		if *tracePath != "" {
			fatal(fmt.Errorf("-trace needs a local search; it cannot observe a remote server"))
		}
		if err := runRemote(*serverURL, *indexPath, *readsPath, *methodName, *k, *verbose); err != nil {
			fatal(err)
		}
		return
	}

	// idx is a Matcher: monolithic and sharded index files are both
	// accepted (LoadAnyFile dispatches on the container magic), and the
	// whole search path below is layout-agnostic.
	var idx bwtmatch.Matcher
	start := time.Now()
	switch {
	case *indexPath != "":
		idx, err = bwtmatch.LoadAnyFile(*indexPath)
	case *genomePath != "":
		var refs []bwtmatch.Reference
		refs, err = readGenome(*genomePath)
		if err == nil {
			idx, err = bwtmatch.NewRefs(refs, bwtmatch.WithBuildWorkers(*buildP))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if sh, ok := idx.(*bwtmatch.ShardedIndex); ok {
		fmt.Fprintf(os.Stderr, "index ready: %d bases in %d shards in %v (%d index bytes, max pattern %d)\n",
			sh.Len(), sh.Shards(), time.Since(start).Round(time.Millisecond), sh.SizeBytes(), sh.MaxPatternLen())
	} else {
		fmt.Fprintf(os.Stderr, "index ready: %d bases in %v (%d index bytes)\n",
			idx.Len(), time.Since(start).Round(time.Millisecond), idx.SizeBytes())
	}

	if *savePath != "" {
		switch x := idx.(type) {
		case *bwtmatch.Index:
			err = x.SaveFile(*savePath)
		case *bwtmatch.ShardedIndex:
			err = x.SaveFile(*savePath)
		default:
			err = fmt.Errorf("index type %T cannot be saved", idx)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved index to %s\n", *savePath)
	}
	if *readsPath == "" {
		return
	}

	f, err := os.Open(*readsPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	recs, err := seqio.NewReader(f).ReadAll()
	if err != nil {
		fatal(err)
	}

	queries := make([]bwtmatch.Query, len(recs))
	for i, rec := range recs {
		clean, _ := bwtmatch.Sanitize(rec.Seq)
		queries[i] = bwtmatch.Query{ID: rec.ID, Pattern: clean, K: *k}
	}
	// Thread an interrupt-aware context into the batch so ^C / SIGTERM
	// stops scheduling new reads instead of orphaning the workers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	searchStart := time.Now()
	var results []bwtmatch.Result
	if *tracePath != "" {
		// Tracing serializes the batch so the timeline stays readable:
		// each read gets its own span on its own logical track.
		rec := obs.NewRecorder()
		results = make([]bwtmatch.Result, len(queries))
		for i, q := range queries {
			rec.SetTID(i + 1)
			rec.Begin(q.ID)
			m, st, err := idx.SearchMethodTraced(q.Pattern, q.K, method, rec)
			rec.End(obs.Arg{Key: "matches", Val: int64(len(m))})
			results[i] = bwtmatch.Result{Matches: m, Stats: st, Err: err}
		}
		if err := writeTrace(*tracePath, rec); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote trace for %d reads to %s\n", len(queries), *tracePath)
	} else {
		results = idx.MapAllContext(ctx, queries, method, *workers)
	}
	elapsed := time.Since(searchStart)

	out := bufio.NewWriter(os.Stdout)
	totalMatches := 0
	if *sam {
		totalMatches = writeSAM(out, idx, queries, results)
	} else {
		for i, res := range results {
			if res.Err != nil {
				fatal(fmt.Errorf("read %s: %w", queries[i].ID, res.Err))
			}
			totalMatches += len(res.Matches)
			fmt.Fprintf(out, "%s %d", queries[i].ID, len(res.Matches))
			if *verbose {
				for _, m := range res.Matches {
					if ref, pos, ok := idx.Resolve(m.Pos, len(queries[i].Pattern)); ok {
						fmt.Fprintf(out, " %s:%d:%d", ref, pos, m.Mismatches)
					} else if len(idx.Refs()) == 0 {
						fmt.Fprintf(out, " %d:%d", m.Pos, m.Mismatches)
					}
					// Boundary-spanning artifacts of concatenation are dropped.
				}
			}
			fmt.Fprintln(out)
		}
	}
	// Flush explicitly: a deferred Flush would swallow the error, and a
	// full disk on redirected stdout must not exit 0.
	if err := out.Flush(); err != nil {
		fatal(fmt.Errorf("writing output: %w", err))
	}
	fmt.Fprintf(os.Stderr, "%d reads, %d matches, %v total (%s, k=%d, p=%d)\n",
		len(recs), totalMatches, elapsed.Round(time.Millisecond), method, *k, *workers)
}

// runRemote sends the reads to a kmserved daemon and prints the same
// compact format as a local run (remote searches have no SAM mode: the
// server does not return reference-resolved coordinates yet).
func runRemote(base, index, readsPath, methodName string, k int, verbose bool) error {
	if index == "" {
		return fmt.Errorf("-server requires -index (the registered index name)")
	}
	if readsPath == "" {
		return fmt.Errorf("-server requires -reads")
	}
	f, err := os.Open(readsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := seqio.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	req := server.SearchRequest{Index: index, K: k, Method: methodName}
	for _, rec := range recs {
		req.Reads = append(req.Reads, server.Read{ID: firstWord(rec.ID), Seq: string(rec.Seq)})
	}
	c := client.New(base)
	start := time.Now()
	resp, err := c.Search(context.Background(), req)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	for _, rr := range resp.Results {
		if rr.Error != "" {
			return fmt.Errorf("read %s: %s", rr.ID, rr.Error)
		}
		fmt.Fprintf(out, "%s %d", rr.ID, len(rr.Matches))
		if verbose {
			for _, m := range rr.Matches {
				fmt.Fprintf(out, " %d:%d", m.Pos, m.Mismatches)
			}
		}
		fmt.Fprintln(out)
	}
	if err := out.Flush(); err != nil {
		return fmt.Errorf("writing output: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%d reads, %d matches, %v round trip (server %.1fms, %s, k=%d, remote)\n",
		resp.Reads, resp.Matches, time.Since(start).Round(time.Millisecond),
		resp.ElapsedMS, resp.Method, k)
	return nil
}

// writeSAM emits one SAM alignment line per match: the best (fewest
// mismatches) hit as the primary record, the rest flagged secondary
// (0x100); unmapped reads get flag 0x4. CIGAR is always <m>M under the
// Hamming model; the NM tag carries the mismatch count. Returns the
// total match count.
func writeSAM(out *bufio.Writer, idx bwtmatch.Matcher, queries []bwtmatch.Query, results []bwtmatch.Result) int {
	fmt.Fprintln(out, "@HD\tVN:1.6\tSO:unknown")
	for _, r := range idx.Refs() {
		fmt.Fprintf(out, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Len)
	}
	fmt.Fprintln(out, "@PG\tID:kmsearch\tPN:kmsearch")
	total := 0
	for i, res := range results {
		q := queries[i]
		name := firstWord(q.ID)
		if res.Err != nil || len(res.Matches) == 0 {
			fmt.Fprintf(out, "%s\t4\t*\t0\t0\t*\t*\t0\t0\t%s\t*\n", name, q.Pattern)
			continue
		}
		best := 0
		for j, m := range res.Matches {
			if m.Mismatches < res.Matches[best].Mismatches {
				best = j
			}
		}
		for j, m := range res.Matches {
			ref, pos, ok := idx.Resolve(m.Pos, len(q.Pattern))
			if !ok {
				continue // boundary artifact
			}
			total++
			flag := 0
			if j != best {
				flag |= 0x100
			}
			fmt.Fprintf(out, "%s\t%d\t%s\t%d\t%d\t%dM\t*\t0\t0\t%s\t*\tNM:i:%d\n",
				name, flag, ref, pos+1, mapq(len(res.Matches)), len(q.Pattern),
				q.Pattern, m.Mismatches)
		}
	}
	return total
}

// mapq is a crude mapping quality: unique hits score high, multi-mapped
// reads low, in the spirit (not the math) of real aligners.
func mapq(hits int) int {
	switch {
	case hits <= 1:
		return 60
	case hits <= 3:
		return 3
	default:
		return 0
	}
}

// readGenome loads every record of a FASTA (or bare-line) file as a
// separate reference, sanitizing ambiguity codes.
func readGenome(path string) ([]bwtmatch.Reference, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := seqio.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	refs := make([]bwtmatch.Reference, len(recs))
	replaced := 0
	for i, rec := range recs {
		clean, n := bwtmatch.Sanitize(rec.Seq)
		replaced += n
		refs[i] = bwtmatch.Reference{Name: firstWord(rec.ID), Seq: clean}
	}
	if replaced > 0 {
		fmt.Fprintf(os.Stderr, "sanitized %d ambiguous bases\n", replaced)
	}
	return refs, nil
}

// firstWord trims a FASTA description to its identifier.
func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i]
		}
	}
	return s
}

// writeTrace saves the recorded timeline as Chrome trace-event JSON
// (load in about:tracing or https://ui.perfetto.dev).
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close() //kmvet:ignore closeerr trace write already failed; that error is the one to report
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kmsearch:", err)
	os.Exit(1)
}
