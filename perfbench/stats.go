package main

import (
	"slices"
	"time"
)

// rankOf is the 1-based nearest rank of the pct-th percentile among n
// samples: the smallest rank with at least pct% of the samples at or
// below it. Integer arithmetic keeps it exact.
func rankOf(n, pct int) int {
	return min(max((n*pct+99)/100, 1), n)
}

// percentile returns the nearest-rank pct-th percentile of xs (0 for an
// empty sample). xs is not modified.
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rankOf(len(s), pct)-1]
}

// beyond counts the samples ranked above the pct-th percentile: the
// support that percentile rests on. p90 is reported only as the
// highest percentile with at least ten samples beyond it, which needs
// 100 samples.
func beyond(n, pct int) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, pct)
}

// median is the middle of xs, the mean of the two middle values for an
// even count (0 for an empty sample). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perRead divides a total by a read count, 0 for no reads.
func perRead(total float64, reads int64) float64 {
	if reads == 0 {
		return 0
	}
	return total / float64(reads)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
