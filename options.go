package bwtmatch

import "bwtmatch/internal/fmindex"

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
// cumulative count per character every rate positions. The paper's
// experiments use rate 4 (the default); larger rates shrink the index at
// the cost of scanning up to rate-1 characters per rank query (§III-A).
func WithOccRate(rate int) Option {
	return func(c *config) { c.fm.OccRate = rate }
}

// WithSARate sets the suffix-array sampling rate used to locate
// occurrences: every rate-th target position is kept. The default is 16.
func WithSARate(rate int) Option {
	return func(c *config) { c.fm.SARate = rate }
}

// WithTwoLevelOcc replaces the paper's flat rankall table with a
// hierarchical directory (absolute 32-bit counts every 256 positions,
// relative 8-bit counts every 16): ~2.5 bits/base of occ overhead
// instead of 32 at the paper's rate-4 layout, at equal query speed.
// OccRate is ignored when set.
func WithTwoLevelOcc() Option {
	return func(c *config) { c.fm.TwoLevelOcc = true }
}

// WithPackedBWT stores the BWT at 2 bits per character and counts
// occurrences with word-parallel popcounts. It cuts the BWT payload 4x
// and is the faster layout when combined with sparse rankall sampling
// (WithOccRate >= 32).
func WithPackedBWT() Option {
	return func(c *config) { c.fm.PackedBWT = true }
}

// WithBuildWorkers parallelizes index construction across n goroutines
// for every phase of the build, including the suffix array itself:
// n >= 2 switches SA construction to parallel DC3 (pDC3), which is
// bit-identical to the serial SA-IS default, and parallelizes
// everything after it (BWT extraction, rankall checkpoints, SA
// sampling, packing) — see DESIGN.md §8 and §12. n <= 1 builds
// serially (the default); queries are unaffected.
func WithBuildWorkers(n int) Option {
	return func(c *config) { c.fm.Workers = n }
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
