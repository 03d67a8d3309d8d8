package bwtmatch

import (
	"runtime"

	"bwtmatch/internal/fmindex"
)

// config collects index construction settings.
type config struct {
	fm fmindex.Options

	// Sharded construction (NewSharded / NewShardedRefs only; plain New
	// ignores these).
	shardSize     int
	shardCount    int
	maxPatternLen int
}

// DefaultMaxPatternLen is the pattern-length bound a sharded index is
// built for when WithMaxPatternLen is not given: shards overlap by
// DefaultMaxPatternLen-1 bytes, so any pattern up to this long is
// searched exactly. Comfortably above short-read lengths (100-300 bp).
const DefaultMaxPatternLen = 512

func defaultConfig() config {
	return config{fm: fmindex.DefaultOptions(), maxPatternLen: DefaultMaxPatternLen}
}

// Option customizes index construction.
type Option func(*config)

// WithOccRate sets the rankall checkpoint spacing of the BWT index: one
// cumulative count per character every rate positions, with the ranks
// in between counted by popcounts over the 2-bit BWT. The default, 32,
// reads one checkpoint row and one BWT word per rank query; the
// paper's experiments use rate 4, and larger rates shrink the index at
// the cost of longer popcount scans (§III-A).
func WithOccRate(rate int) Option {
	return func(c *config) { c.fm.OccRate = rate }
}

// WithSARate sets the suffix-array sampling rate used to locate
// occurrences: every rate-th target position is kept. The default is 16.
func WithSARate(rate int) Option {
	return func(c *config) { c.fm.SARate = rate }
}

// WithBuildWorkers runs every phase of index construction but the
// suffix array (text validation, BWT extraction, character counts,
// packing, rankall checkpoints, SA sampling) across n goroutines. The
// suffix array itself is always built serially by SA-IS — see
// DESIGN.md §8 and §12. n is capped at runtime.GOMAXPROCS(0), since
// goroutines beyond the CPUs only add overhead. n <= 1 builds serially
// (the default); the index bytes and queries are unaffected.
func WithBuildWorkers(n int) Option {
	return func(c *config) { c.fm.Workers = min(n, runtime.GOMAXPROCS(0)) }
}

// BuildPhases is the wall-clock breakdown of index construction: the
// suffix array, the BWT extraction plus C array, the rankall
// checkpoint tables, and the packing plus locate samples. The sum can
// slightly undershoot the total build time (allocation and validation
// sit between phases).
type BuildPhases struct {
	SANS   int64
	BWTNS  int64
	OccNS  int64
	PackNS int64
}

// WithBuildPhases accumulates the construction-phase breakdown into ph:
// each build the option applies to adds its phase durations, so a
// streaming multi-shard build sums into one sink. Not synchronized —
// do not share one sink across concurrently built indexes (plain New
// and the streaming builder are safe; a single NewSharded call builds
// shards concurrently and must not share a sink). Construction-only;
// never serialized with the index.
func WithBuildPhases(ph *BuildPhases) Option {
	return func(c *config) { c.fm.Phases = (*fmindex.BuildPhases)(ph) }
}

// WithShards partitions a sharded index into n shards of equal stride
// (NewSharded / NewShardedRefs). Mutually exclusive with WithShardSize;
// the last one set wins. Plain New ignores it.
func WithShards(n int) Option {
	return func(c *config) { c.shardCount = n; c.shardSize = 0 }
}

// WithShardSize partitions a sharded index into shards that own `bytes`
// target bytes each (each shard additionally indexes the
// maxPatternLen-1 overlap into its successor). Mutually exclusive with
// WithShards; the last one set wins. Plain New ignores it.
func WithShardSize(bytes int) Option {
	return func(c *config) { c.shardSize = bytes; c.shardCount = 0 }
}

// WithMaxPatternLen sets the longest pattern a sharded index answers
// exactly (default DefaultMaxPatternLen). It fixes the shard overlap at
// n-1 bytes: larger bounds cost index space proportional to
// shards x (n-1), and queries longer than the bound are rejected with
// ErrInput. Plain New ignores it.
func WithMaxPatternLen(n int) Option {
	return func(c *config) { c.maxPatternLen = n }
}
