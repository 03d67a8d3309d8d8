package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/obs"
)

// JSONResult is one (method, k) cell of the machine-readable search
// benchmark: timing plus the paper's work counters, so trajectory files
// record *why* a run was fast or slow, not just how fast it was.
type JSONResult struct {
	Experiment  string  `json:"experiment"`
	Genome      string  `json:"genome"`
	Method      string  `json:"method"`
	K           int     `json:"k"`
	ReadLen     int     `json:"read_len"`
	Reads       int     `json:"reads"`
	NSPerRead   int64   `json:"ns_per_read"`        // best of Rounds
	LocateNS    int64   `json:"locate_ns_per_read"` // Σ locate wall time / reads, best round
	MSPerRead   float64 `json:"ms_per_read"`
	Matches     int     `json:"matches"`
	MTreeLeaves int64   `json:"mtree_leaves"` // Σ n′ across reads
	MemoHits    int64   `json:"memo_hits"`    // Σ merge short-circuits
	StepCalls   int64   `json:"step_calls"`   // Σ traversal rank operations
	PhiSteps    int64   `json:"phi_steps"`    // Σ rank operations of the φ bound
}

// JSONReport is the top-level document emitted by kmbench -json.
type JSONReport struct {
	Schema    string `json:"schema"` // "kmbench/v1"
	Scale     int    `json:"scale"`
	Reads     int    `json:"reads"`
	Seed      int64  `json:"seed"`
	Rounds    int    `json:"rounds"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
	// BuildNS and ShardedBuildNS time index construction over the same
	// text: one monolithic build versus BuildShards concurrent per-shard
	// builds (sharding is what parallelizes SA-IS; see DESIGN.md §10).
	// On a 1-CPU machine the sharded build cannot beat the monolithic
	// one — BuildGOMAXPROCS records the parallelism that was available.
	BuildNS         int64 `json:"build_ns"`
	ShardedBuildNS  int64 `json:"sharded_build_ns"`
	BuildShards     int   `json:"build_shards"`
	BuildGOMAXPROCS int   `json:"build_gomaxprocs"`
	// The monolithic build's phase breakdown (WithBuildPhases): the
	// suffix array, BWT extraction + C array, rankall checkpoints, and
	// packing + locate samples. Their sum can slightly undershoot
	// BuildNS (allocation and validation sit between phases).
	SANS   int64 `json:"sa_ns"`
	BWTNS  int64 `json:"bwt_ns"`
	OccNS  int64 `json:"occ_ns"`
	PackNS int64 `json:"pack_ns"`
	// StreamBuildNS times building the same text through the streaming
	// shard builder (same shard count) to a temp file. It runs before
	// the in-memory builds, so StreamPeakRSS — the VmHWM right after it
	// finishes — reflects the streaming path's bounded footprint rather
	// than the monolithic build's full-suffix-array spike, which
	// PeakBuildRSS (VmHWM after the in-memory builds) captures.
	StreamBuildNS int64        `json:"stream_build_ns"`
	StreamPeakRSS int64        `json:"stream_build_peak_rss"`
	PeakBuildRSS  int64        `json:"peak_build_rss"`
	PeakRSSBytes  int64        `json:"peak_rss_bytes"`
	Results       []JSONResult `json:"results"`
	// Tenant carries the multi-tenant accounting when the report was
	// produced by RunTenants (kmbench -json -tenants N); nil otherwise.
	Tenant *TenantSummary `json:"tenant,omitempty"`
}

// jsonMethods are the BWT-path matchers the search benchmarks compare
// (the methods the Tracer instruments), in ablation order.
var jsonMethods = []bwtmatch.Method{
	bwtmatch.STree, bwtmatch.BWTBaseline,
	bwtmatch.AlgorithmANoPhi, bwtmatch.AlgorithmA,
}

// jsonKs are the mismatch budgets swept per method. The grid runs to
// k=5 so the trajectory captures the regime where the M-tree memo and
// φ(i) pruning dominate (the paper's Fig. 11(a) inflection), not just
// the cheap low-k cells.
var jsonKs = []int{1, 2, 3, 4, 5}

// jsonShards is the shard count of the sharded-layout cells.
const jsonShards = 4

// RunJSON runs the search benchmark grid (jsonMethods × jsonKs, reads
// of length 100 on the largest genome) rounds times per cell, keeps the
// best wall time, and writes one JSONReport to w. When tr is non-nil
// each cell is wrapped in a trace span, so a -json -trace run yields a
// timeline of the whole grid.
func RunJSON(w io.Writer, cfg Config, rounds int, tr obs.Tracer) error {
	cfg.normalize()
	if rounds < 1 {
		rounds = 1
	}
	spec := Specs(cfg.Scale)[0]
	g, err := spec.generate()
	if err != nil {
		return err
	}
	text := alphabet.Decode(g)
	// Stream-build first, while the process is still small: VmHWM is
	// monotonic, so measuring before the in-memory builds (which hold a
	// full suffix array of the whole text) is the only order in which
	// the streaming path's bounded footprint is visible.
	streamNS, streamRSS, err := streamBuildDemo(text)
	if err != nil {
		return err
	}
	var phases bwtmatch.BuildPhases
	c, err := buildCorpusFrom(spec, g, bwtmatch.WithBuildPhases(&phases))
	if err != nil {
		return err
	}
	reads, err := c.Reads(100, cfg.Reads, cfg.Seed)
	if err != nil {
		return err
	}
	// The sharded counterpart: same text, jsonShards concurrent per-shard
	// builds, searched through the same grid so the report carries
	// sharded-vs-monolithic cells for every (method, k).
	shardStart := time.Now()
	sharded, err := bwtmatch.NewSharded(text,
		bwtmatch.WithShards(jsonShards), bwtmatch.WithMaxPatternLen(128))
	if err != nil {
		return err
	}
	shardedBuild := time.Since(shardStart)

	rep := JSONReport{
		Schema:          "kmbench/v1",
		Scale:           cfg.Scale,
		Reads:           len(reads),
		Seed:            cfg.Seed,
		Rounds:          rounds,
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		GoVersion:       runtime.Version(),
		BuildNS:         c.BuildTime.Nanoseconds(),
		ShardedBuildNS:  shardedBuild.Nanoseconds(),
		BuildShards:     jsonShards,
		BuildGOMAXPROCS: runtime.GOMAXPROCS(0),
		SANS:            phases.SANS,
		BWTNS:           phases.BWTNS,
		OccNS:           phases.OccNS,
		PackNS:          phases.PackNS,
		StreamBuildNS:   streamNS,
		StreamPeakRSS:   streamRSS,
		PeakBuildRSS:    obs.PeakRSS(),
	}
	layouts := []struct {
		experiment string
		idx        bwtmatch.Matcher
	}{
		{"search", c.Index},
		{"search-sharded", sharded},
	}
	for _, layout := range layouts {
		for _, k := range jsonKs {
			for _, m := range jsonMethods {
				if tr != nil {
					tr.Begin(fmt.Sprintf("%s/%v/k=%d", layout.experiment, m, k))
				}
				cell, err := timeCell(layout.idx, reads, k, m, rounds)
				if err != nil {
					return err
				}
				cell.Experiment = layout.experiment
				cell.Genome = spec.Name
				if tr != nil {
					tr.End(
						obs.Arg{Key: "ns_per_read", Val: cell.NSPerRead},
						obs.Arg{Key: "mtree_leaves", Val: cell.MTreeLeaves},
						obs.Arg{Key: "memo_hits", Val: cell.MemoHits},
					)
				}
				rep.Results = append(rep.Results, cell)
			}
		}
	}
	rep.PeakRSSBytes = obs.PeakRSS()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// streamBuildDemo builds text through the streaming shard builder
// (jsonShards shards, same geometry as the sharded grid cells) into a
// throwaway temp file and reports the wall time and the process VmHWM
// right afterwards.
func streamBuildDemo(text []byte) (ns, rss int64, err error) {
	f, err := os.CreateTemp("", "kmbench-stream-*.km")
	if err != nil {
		return 0, 0, err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	size := (len(text) + jsonShards - 1) / jsonShards
	start := time.Now()
	sb, err := bwtmatch.NewStreamBuilder(path,
		bwtmatch.WithShardSize(size), bwtmatch.WithMaxPatternLen(128))
	if err != nil {
		return 0, 0, err
	}
	if _, err := sb.Write(text); err != nil {
		sb.Abort() // the write error is the one to report
		return 0, 0, err
	}
	if err := sb.Close(); err != nil {
		return 0, 0, err
	}
	return time.Since(start).Nanoseconds(), obs.PeakRSS(), nil
}

// timeCell measures one (method, k) cell: every read once per round,
// best round kept; work counters are summed over the reads of one round
// (they are deterministic across rounds).
func timeCell(idx bwtmatch.Matcher, reads [][]byte, k int, m bwtmatch.Method, rounds int) (JSONResult, error) {
	cell := JSONResult{Method: m.String(), K: k, ReadLen: len(reads[0]), Reads: len(reads)}
	// Warm lazy structures outside the timing.
	if _, _, err := bwtmatch.SearchMethod(idx, reads[0], k, m); err != nil {
		return cell, err
	}
	best := time.Duration(-1)
	for r := 0; r < rounds; r++ {
		var leaves, memo, steps, phiSteps, locNS int64
		matches := 0
		start := time.Now()
		for _, rd := range reads {
			ms, st, err := bwtmatch.SearchMethod(idx, rd, k, m)
			if err != nil {
				return cell, err
			}
			matches += len(ms)
			leaves += int64(st.MTreeLeaves)
			memo += int64(st.MemoHits)
			steps += int64(st.StepCalls)
			phiSteps += int64(st.PhiSteps)
			locNS += st.LocateNS
		}
		if d := time.Since(start); best < 0 || d < best {
			best = d
			cell.LocateNS = locNS / int64(len(reads))
		}
		cell.Matches = matches
		cell.MTreeLeaves = leaves
		cell.MemoHits = memo
		cell.StepCalls = steps
		cell.PhiSteps = phiSteps
	}
	cell.NSPerRead = best.Nanoseconds() / int64(len(reads))
	cell.MSPerRead = float64(cell.NSPerRead) / 1e6
	return cell, nil
}
