package main

import (
	"time"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/fmindex"
)

// Rank-layer timing: rounds per figure, and the least time one round
// takes (its calls repeat until they fill it).
const (
	rankRounds   = 5
	rankRoundMin = 20 * time.Millisecond
	rankReads    = 512
)

// rankSink keeps the timed StepAll results observable.
var rankSink int32

// rankCost holds the per-call cost of an index's rank layer.
type rankCost struct {
	stepAllNS      float64 // per StepAll call
	matchLenNSStep float64 // per MatchLen step
}

// rankProbe is the rank layer of a mono index over a reversed genome
// and of a relative index of a reversed tenant genome against it.
type rankProbe struct {
	mono, rel rankCost
	relBuild  time.Duration // CPU time of the tenant's own index plus its delta, as NewRelative spends it
	relDelta  float64       // tenant-resident bytes per tenant base
}

func probeRank(base, tenant []byte, reads [][]byte) (rankProbe, error) {
	var p rankProbe
	b, err := fmindex.Build(alphabet.Reverse(append([]byte(nil), base...)), fmindex.DefaultOptions())
	if err != nil {
		return p, err
	}
	start := cpuTime()
	t, err := fmindex.Build(alphabet.Reverse(append([]byte(nil), tenant...)), fmindex.DefaultOptions())
	if err != nil {
		return p, err
	}
	rx, err := fmindex.MakeRelative(b, t)
	if err != nil {
		return p, err
	}
	p.relBuild = cpuTime() - start
	p.relDelta = float64(rx.SizeBytes()) / float64(rx.N())
	if p.mono, err = rankTiming(b, reads); err != nil {
		return p, err
	}
	p.rel, err = rankTiming(rx, reads)
	return p, err
}

// rankTiming times the rank layer of an index over the reversed genome
// directly: StepAll over the multi-row intervals the reads' exact-match
// paths visit (the intervals the M-tree expands), and MatchLen over
// every suffix of every read (the φ bound's walk). Each figure is the
// median over rounds.
func rankTiming(idx *fmindex.Index, reads [][]byte) (rankCost, error) {
	var pats [][]byte
	for _, r := range reads[:min(rankReads, len(reads))] {
		p, err := alphabet.Encode(r)
		if err != nil {
			return rankCost{}, err
		}
		pats = append(pats, p)
	}
	var ivs []fmindex.Interval
	for _, p := range pats {
		iv := idx.Full()
		for _, x := range p {
			if iv.Len() < 2 {
				break
			}
			ivs = append(ivs, iv)
			iv = idx.Step(x, iv)
		}
	}
	var out [alphabet.Bases]fmindex.Interval
	stepAll := timeRounds(func() int {
		for _, iv := range ivs {
			idx.StepAll(iv, &out)
			rankSink += out[0].Lo
		}
		return len(ivs)
	})
	matchLen := timeRounds(func() int {
		steps := 0
		for _, p := range pats {
			for i := range p {
				_, s := idx.MatchLen(p[i:])
				steps += s
			}
		}
		return steps
	})
	return rankCost{stepAllNS: stepAll, matchLenNSStep: matchLen}, nil
}

// timeRounds returns the median over rankRounds of the time per unit
// of work, where one call of fn does the returned number of units.
func timeRounds(fn func() int) float64 {
	start := time.Now()
	fn()
	reps := int(rankRoundMin/max(time.Since(start), 1)) + 1
	var per []float64
	for range rankRounds {
		units := 0
		start := time.Now()
		for range reps {
			units += fn()
		}
		per = append(per, float64(time.Since(start))/float64(max(units, 1)))
	}
	return median(per)
}
