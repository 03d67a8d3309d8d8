package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/server"
)

// The map workloads: one caller maps batches in process against a mono
// index over the 4 MiB genome, fanning each batch out over mapWorkers.
const (
	mapReads    = 1 << 16 // read pool; a run answers it in order and wraps
	mapWorkers  = 2
	sampleReads = 8   // reads compared in full against naive.Find
	sampleFrom  = 256 // sampled among the first reads of the pool
)

// mapRun is one run of a map workload: its inputs, index and read
// cursor.
type mapRun struct {
	r      *runner
	k      int
	genome []byte // rank-encoded
	text   []byte
	reads  [][]byte
	idx    *bwtmatch.Index
	next   int // next read of the pool
	buf    []hit
}

func runMap(r *runner, k int) (*result, error) {
	w := &mapRun{r: r, k: k}
	var err error
	if w.genome, err = ratGenome(mapGenomeBases, mapGenomeSeed); err != nil {
		return nil, err
	}
	w.text = alphabet.Decode(w.genome)
	if w.reads, err = simulateReads(w.genome, mapReads, streamSeed(r.opt.seed, streamReads, 0)); err != nil {
		return nil, err
	}
	r.info("input genome bases=%d sha256=%s", len(w.genome), fingerprint(w.genome))
	r.info("input reads count=%d len=%d k=%d sha256=%s", len(w.reads), readLen, k, fingerprint(w.reads...))

	setup := make([]float64, setupRounds)
	setupWall := make([]float64, setupRounds)
	phases := make([]bwtmatch.BuildPhases, setupRounds)
	for i := range setup {
		w.idx = nil
		liveHeap() // collect the previous round's index before timing
		r.main.Begin("setup.build")
		c := startClock()
		w.idx, err = bwtmatch.New(w.text, bwtmatch.WithBuildPhases(&phases[i]))
		setup[i], setupWall[i] = (cpuTime() - c.cpu).Seconds(), time.Since(c.wall).Seconds()
		r.main.End()
		if err != nil {
			return nil, err
		}
	}
	liveHeap() // collect the last round's garbage before the warm-up
	sample := pickSample(rand.New(rand.NewSource(streamSeed(r.opt.seed, streamSample, 0))), 0, 0, sampleFrom, sampleReads)
	g := newGate([][]byte{w.text}, k, sample)
	bytesPerBase := float64(w.idx.SizeBytes()) / float64(w.idx.Len())

	if !r.opt.trace {
		all := w.loop(r.warmup(), g, nil)
		ph, refs, err := measure(r, func(ref *hostRef) (phaseStats, error) {
			return w.loop(r.phase(1), g, ref), nil
		})
		if err != nil {
			return nil, err
		}
		live := liveHeap()
		all.add(ph)
		if err := w.finish(g, all); err != nil {
			return &result{Attempted: all.reads, Failed: all.failed}, err
		}
		return &result{Attempted: all.reads, Failed: all.failed,
			Metrics: endToEnd(r, setup, setupWall, ph, refs, bytesPerBase, live)}, nil
	}

	// Traced mode: the measured loop again for the runtime counters;
	// then the loop the tracers need, which splits each batch over its
	// own goroutines, once without and once with a tracer per goroutine.
	l := layers{phases: phases}
	before := readMem()
	all := w.loop(r.phase(3), g, nil)
	l.mem, l.memReads = memSince(before), all.reads
	plain, _ := w.splitLoop(r.phase(3), g, nil, make([]*lane, mapWorkers))
	workers := make([]*lane, mapWorkers)
	for i := range workers {
		workers[i] = r.newLane()
	}
	traced, locateNS := w.splitLoop(r.phase(3), g, r.main, workers)
	l.untracedRPS, l.tracedRPS = plain.readsPerCPUSec(), traced.readsPerCPUSec()
	l.reads, l.locateNS = traced.reads, locateNS
	l.core = merge(append([]*lane{r.main}, workers...)...)
	all.add(plain)
	all.add(traced)
	if err := w.finish(g, all); err != nil {
		return &result{Attempted: all.reads, Failed: all.failed}, err
	}
	if err := w.probeLayers(&l); err != nil {
		return nil, err
	}
	account(r, l.core, l.reads)
	if err := finishTrace(r, nil); err != nil {
		return nil, err
	}
	return &result{Attempted: all.reads, Failed: all.failed, Metrics: l.metrics()}, nil
}

// fill loads the next batch of the pool into batch and ids.
func (w *mapRun) fill(batch []bwtmatch.Query, ids []int) {
	for i := range batch {
		ids[i] = w.next
		batch[i] = bwtmatch.Query{Pattern: w.reads[w.next], K: w.k}
		w.next = (w.next + 1) % len(w.reads)
	}
}

// check gates one read's answer.
func (w *mapRun) check(g *gate, id int, ms []bwtmatch.Match) {
	w.buf = w.buf[:0]
	for _, m := range ms {
		w.buf = append(w.buf, hit{m.Pos, m.Mismatches})
	}
	g.check(readKey{0, id}, w.reads[id], w.buf)
}

// loop is the measured closed loop: one caller issues MapAllContext
// batches until d has passed and checks every answer. A non-nil ref
// samples the host between batches.
func (w *mapRun) loop(d time.Duration, g *gate, ref *hostRef) phaseStats {
	ctx := context.Background()
	batch := make([]bwtmatch.Query, batchSize)
	ids := make([]int, batchSize)
	var ph phaseStats
	start := startClock()
	for time.Since(start.wall) < d {
		w.fill(batch, ids)
		ref.busy()
		t0, c0 := time.Now(), cpuTime()
		res := w.idx.MapAllContext(ctx, batch, bwtmatch.AlgorithmA, mapWorkers)
		ph.record(t0, time.Since(t0), cpuTime()-c0)
		ref.idle()
		ph.reads += batchSize
		for i, rr := range res {
			if rr.Err != nil {
				ph.failed++
				continue
			}
			w.check(g, ids[i], rr.Matches)
		}
	}
	ph.end(start)
	return ph
}

// splitLoop is loop with room for the benchmark's tracers: one
// goroutine per lane splits each batch's reads, calling
// SearchMethodTraced with its lane inside a read span, and the caller
// wraps the batch in a span. Nil lanes run it untraced. It also returns
// the summed Stats.LocateNS.
func (w *mapRun) splitLoop(d time.Duration, g *gate, caller *lane, lanes []*lane) (phaseStats, int64) {
	type answer struct {
		ms  []bwtmatch.Match
		err error
	}
	batch := make([]bwtmatch.Query, batchSize)
	ids := make([]int, batchSize)
	answers := make([]answer, batchSize)
	locate := make([]int64, len(lanes))
	var ph phaseStats
	start := startClock()
	for time.Since(start.wall) < d {
		w.fill(batch, ids)
		caller.Begin("batch")
		t0, c0 := time.Now(), cpuTime()
		var next atomic.Int64
		var wg sync.WaitGroup
		for li, l := range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var tr bwtmatch.Tracer
				if l != nil {
					tr = l
				}
				for i := int(next.Add(1)) - 1; i < len(batch); i = int(next.Add(1)) - 1 {
					l.Begin("read")
					ms, st, err := w.idx.SearchMethodTraced(batch[i].Pattern, w.k, bwtmatch.AlgorithmA, tr)
					l.End()
					answers[i] = answer{ms, err}
					locate[li] += st.LocateNS
				}
			}()
		}
		wg.Wait()
		ph.record(t0, time.Since(t0), cpuTime()-c0)
		caller.End()
		ph.reads += batchSize
		for i, a := range answers {
			if a.err != nil {
				ph.failed++
				continue
			}
			w.check(g, ids[i], a.ms)
		}
	}
	ph.end(start)
	var total int64
	for _, n := range locate {
		total += n
	}
	return ph, total
}

// finish runs the complete comparison of the sampled reads and prints
// the gate's tally.
func (w *mapRun) finish(g *gate, ph phaseStats) error {
	hits, compared, err := finish([]*gate{g}, func(key readKey) []byte { return w.reads[key.read] })
	w.r.info("gate reads=%d hits_checked=%d naive_compared=%d", ph.reads-ph.failed, hits, compared)
	if err != nil {
		return fmt.Errorf("%w: %v", errIncorrect, err)
	}
	return nil
}

// probeLayers measures, after the timed phases, the layers the map
// workloads reach only through set-up or bypass: the rank layer of a
// mono and a relative index over the reversed genome, and saving,
// registering and serving the map index through kmserved.
func (w *mapRun) probeLayers(l *layers) error {
	tenant := mutate(w.genome, tenantRate, streamSeed(w.r.opt.seed, streamTenants, 0))
	rp, err := probeRank(w.genome, tenant, w.reads)
	if err != nil {
		return err
	}
	l.rank, l.rel, l.relBuild, l.relDelta = rp.mono, rp.rel, rp.relBuild.Seconds(), rp.relDelta

	path := filepath.Join(w.r.scratch, "map.bwt")
	start := cpuTime()
	if err := w.idx.SaveFile(path); err != nil {
		return err
	}
	l.save = (cpuTime() - start).Seconds()
	srv := server.New(server.Config{Workers: mapWorkers})
	start = cpuTime()
	if err := srv.Register("map", path); err != nil {
		return err
	}
	l.register = (cpuTime() - start).Seconds()
	f, err := listen(srv)
	if err != nil {
		return err
	}
	targets := []serveTarget{{name: "map", text: w.text, reads: w.reads}}
	probe := newServeLoad(w.r, targets, w.k, 1)
	ph, sv, perr := probe.httpPhase(f, w.r.phase(10), true, nil)
	if err := errors.Join(perr, f.close()); err != nil {
		return err
	}
	if err := probe.finish(ph); err != nil {
		return err
	}
	l.search, l.overhead, l.queue = sv.search, sv.overhead, sv.queue
	return nil
}
