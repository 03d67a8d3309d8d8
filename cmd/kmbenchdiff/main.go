// Command kmbenchdiff compares two kmbench -json reports and flags
// performance regressions, so BENCH_*.json trajectory files can gate a
// change instead of only documenting it.
//
// Usage:
//
//	kmbenchdiff old.json new.json              # report, exit 1 on regression
//	kmbenchdiff -threshold 5 old.json new.json # stricter gate (percent)
//
// Cells are matched by (experiment, method, k). For every matched cell
// it prints the ns/read delta plus the work-counter deltas that explain
// it; cells present in only one report are listed but never gate (the
// sweep grid is allowed to grow). Index construction time (build_ns)
// gates alongside the search cells when both reports carry it and the
// old build exceeds one millisecond; peak RSS gates when it grows past
// the threshold percent AND by more than 1 MiB absolute. The
// construction phase breakdown (sa/bwt/occ/pack) and the
// streaming-build figures are printed for diagnosis only.
//
// Exit status: 0 when nothing regressed, 1 when any gated quantity
// regressed by more than -threshold percent (default 10) — always
// after its FAIL: lines are printed — and 2 for usage errors and for
// reports that are missing, unreadable, malformed or share no cells.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// result mirrors the fields of bench.JSONResult that the diff consumes.
// It is declared locally so the tool can compare reports from any build,
// including ones predating fields like locate_ns_per_read.
type result struct {
	Experiment  string `json:"experiment"`
	Method      string `json:"method"`
	K           int    `json:"k"`
	NSPerRead   int64  `json:"ns_per_read"`
	LocateNS    int64  `json:"locate_ns_per_read"`
	Matches     int    `json:"matches"`
	MTreeLeaves int64  `json:"mtree_leaves"`
	MemoHits    int64  `json:"memo_hits"`
	StepCalls   int64  `json:"step_calls"`
}

type report struct {
	Schema        string   `json:"schema"`
	Scale         int      `json:"scale"`
	Reads         int      `json:"reads"`
	Seed          int64    `json:"seed"`
	BuildNS       int64    `json:"build_ns"`
	SANS          int64    `json:"sa_ns"`
	BWTNS         int64    `json:"bwt_ns"`
	OccNS         int64    `json:"occ_ns"`
	PackNS        int64    `json:"pack_ns"`
	StreamBuildNS int64    `json:"stream_build_ns"`
	StreamPeakRSS int64    `json:"stream_build_peak_rss"`
	PeakRSSBytes  int64    `json:"peak_rss_bytes"`
	Results       []result `json:"results"`
}

type cellKey struct {
	experiment, method string
	k                  int
}

// locateFloorNS is the smallest old locate ns/read the gate acts on.
const locateFloorNS = 1000

// buildFloorNS is the smallest old build_ns the construction gate acts
// on: sub-millisecond builds are dominated by allocator noise.
const buildFloorNS = 1_000_000

// rssFloorBytes is the smallest absolute peak-RSS growth the gate acts
// on: below 1 MiB a percentage is GC/allocator jitter, not a leak.
const rssFloorBytes = 1 << 20

func main() {
	threshold := flag.Float64("threshold", 10, "fail when ns/read regresses by more than this percent")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kmbenchdiff [-threshold pct] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold); err != nil {
		fmt.Fprintf(os.Stderr, "kmbenchdiff: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// errRegressed marks run's error when the diff itself succeeded and
// found a regression; every other error is bad input.
var errRegressed = errors.New("regressed")

// exitCode maps run's error to the process exit status: 1 for a
// regression, 2 for anything that kept the diff from being made.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errRegressed):
		return 1
	default:
		return 2
	}
}

func run(w io.Writer, oldPath, newPath string, threshold float64) error {
	oldRep, err := load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(newPath)
	if err != nil {
		return err
	}
	if oldRep.Scale != newRep.Scale || oldRep.Reads != newRep.Reads || oldRep.Seed != newRep.Seed {
		fmt.Fprintf(w, "note: workloads differ (scale %d/%d, reads %d/%d, seed %d/%d); deltas may not be comparable\n",
			oldRep.Scale, newRep.Scale, oldRep.Reads, newRep.Reads, oldRep.Seed, newRep.Seed)
	}

	oldCells := make(map[cellKey]result, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldCells[cellKey{r.Experiment, r.Method, r.K}] = r
	}

	fmt.Fprintf(w, "%-14s %2s  %12s %12s %8s  %10s %10s\n",
		"method", "k", "old ns/read", "new ns/read", "delta", "locate ns", "leaves Δ")
	var regressions []string
	matched := 0
	for _, nr := range newRep.Results {
		key := cellKey{nr.Experiment, nr.Method, nr.K}
		or, ok := oldCells[key]
		if !ok {
			fmt.Fprintf(w, "%-14s %2d  %12s %12d %8s  %10d %10s  (new cell)\n",
				nr.Method, nr.K, "-", nr.NSPerRead, "-", nr.LocateNS, "-")
			continue
		}
		delete(oldCells, key)
		matched++
		pct := 100 * (float64(nr.NSPerRead) - float64(or.NSPerRead)) / float64(or.NSPerRead)
		mark := ""
		if pct > threshold {
			mark = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s k=%d: %d -> %d ns/read (%+.1f%%)", nr.Method, nr.K, or.NSPerRead, nr.NSPerRead, pct))
		}
		// Locate time gates too, but only when both reports carry it (a
		// zero means the field predates the report, not a free pass) and
		// the old value clears locateFloorNS: per-read locate averages
		// below a microsecond are clock jitter, not signal.
		if or.LocateNS >= locateFloorNS && nr.LocateNS > 0 {
			lpct := 100 * (float64(nr.LocateNS) - float64(or.LocateNS)) / float64(or.LocateNS)
			if lpct > threshold {
				mark = "  REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s k=%d: %d -> %d locate ns/read (%+.1f%%)", nr.Method, nr.K, or.LocateNS, nr.LocateNS, lpct))
			}
		}
		fmt.Fprintf(w, "%-14s %2d  %12d %12d %+7.1f%%  %10d %10d%s\n",
			nr.Method, nr.K, or.NSPerRead, nr.NSPerRead, pct, nr.LocateNS, nr.MTreeLeaves-or.MTreeLeaves, mark)
		if nr.Matches != or.Matches {
			fmt.Fprintf(w, "  warning: %s k=%d match count changed %d -> %d (results differ, not just speed)\n",
				nr.Method, nr.K, or.Matches, nr.Matches)
		}
	}
	for key := range oldCells {
		fmt.Fprintf(w, "%-14s %2d  (cell dropped from new report)\n", key.method, key.k)
	}
	// Index construction gates like a cell: a build_ns regression past
	// the threshold fails the diff, provided both reports carry the field
	// (zero means it predates the report) and the old build clears
	// buildFloorNS. The phase breakdown and the streaming build are
	// printed for diagnosis but never gate — phase boundaries shift
	// between builds, and the streaming path trades time for memory.
	if oldRep.BuildNS > 0 && newRep.BuildNS > 0 {
		bpct := 100 * (float64(newRep.BuildNS) - float64(oldRep.BuildNS)) / float64(oldRep.BuildNS)
		mark := ""
		if oldRep.BuildNS >= buildFloorNS && bpct > threshold {
			mark = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("build: %d -> %d ns (%+.1f%%)", oldRep.BuildNS, newRep.BuildNS, bpct))
		}
		fmt.Fprintf(w, "build          --  %12d %12d %+7.1f%%%s\n", oldRep.BuildNS, newRep.BuildNS, bpct, mark)
		if newRep.SANS > 0 {
			fmt.Fprintf(w, "  new build phases: sa %dns, bwt %dns, occ %dns, pack %dns\n",
				newRep.SANS, newRep.BWTNS, newRep.OccNS, newRep.PackNS)
		}
	}
	if newRep.StreamBuildNS > 0 {
		fmt.Fprintf(w, "  new stream build: %dns, peak RSS %d bytes\n", newRep.StreamBuildNS, newRep.StreamPeakRSS)
	}
	// Peak RSS gates like a cell: the percentage must clear the threshold
	// AND the absolute growth must clear rssFloorBytes — GC timing makes
	// small-percentage-of-small-number deltas pure noise, but a
	// double-digit percent on top of a MiB-scale absolute jump is a real
	// resident-memory regression (the delta-compression work exists to
	// move exactly this number, so it must be protected like latency).
	rssNote := ""
	if oldRep.PeakRSSBytes > 0 && newRep.PeakRSSBytes > 0 {
		grown := newRep.PeakRSSBytes - oldRep.PeakRSSBytes
		pct := 100 * float64(grown) / float64(oldRep.PeakRSSBytes)
		rssNote = fmt.Sprintf("; peak RSS %d -> %d bytes (%+.1f%%)", oldRep.PeakRSSBytes, newRep.PeakRSSBytes, pct)
		if pct > threshold && grown > rssFloorBytes {
			regressions = append(regressions,
				fmt.Sprintf("peak RSS: %d -> %d bytes (%+.1f%%, +%d bytes)",
					oldRep.PeakRSSBytes, newRep.PeakRSSBytes, pct, grown))
		}
	}
	if matched == 0 {
		return fmt.Errorf("no cells in common between %s and %s", oldPath, newPath)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(w, "FAIL:", r)
		}
		fmt.Fprintf(w, "summary: %d cell(s) regressed%s\n", len(regressions), rssNote)
		return fmt.Errorf("%w: %d cell(s) more than %.0f%%", errRegressed, len(regressions), threshold)
	}
	fmt.Fprintf(w, "ok: %d cells compared, none regressed more than %.0f%%%s\n", matched, threshold, rssNote)
	return nil
}

func load(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != "kmbench/v1" {
		return rep, fmt.Errorf("%s: unexpected schema %q (want kmbench/v1)", path, rep.Schema)
	}
	if len(rep.Results) == 0 {
		return rep, fmt.Errorf("%s: no results", path)
	}
	return rep, nil
}
