package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/obs"
	"bwtmatch/server"
	"bwtmatch/server/client"
)

// The serve-tenants workload: relative tenants of a 1 MiB base, saved
// and registered in an in-process kmserved, queried over loopback HTTP
// by serveClients closed-loop clients.
const (
	serveTenants  = 4
	serveK        = 2
	serveClients  = 2
	tenantReads   = 1 << 14 // read pool per tenant
	sampleRegion  = 32      // sampled among each client's first reads of a tenant
	samplePerPool = 2
	keepFragments = 256 // server trace fragments kept for the written trace
)

func runServe(r *runner) (res *result, err error) {
	base, err := ratGenome(baseGenomeBases, baseGenomeSeed)
	if err != nil {
		return nil, err
	}
	r.info("input base bases=%d sha256=%s", len(base), fingerprint(base))
	genomes := make([][]byte, serveTenants)
	targets := make([]serveTarget, serveTenants)
	var tenantBases int
	for t := range targets {
		genomes[t] = mutate(base, tenantRate, streamSeed(r.opt.seed, streamTenants, t))
		reads, err := simulateReads(genomes[t], tenantReads, streamSeed(r.opt.seed, streamReads, t))
		if err != nil {
			return nil, err
		}
		targets[t] = serveTarget{name: fmt.Sprintf("tenant-%d", t), text: alphabet.Decode(genomes[t]), reads: reads}
		tenantBases += len(genomes[t])
		r.info("input tenant=%d bases=%d sha256=%s reads=%d k=%d reads_sha256=%s",
			t, len(genomes[t]), fingerprint(genomes[t]), len(reads), serveK, fingerprint(reads...))
	}

	var fl *tenantFleet
	defer func() {
		if fl != nil {
			err = errors.Join(err, fl.f.close())
		}
	}()
	setup := make([]float64, setupRounds)
	setupWall := make([]float64, setupRounds)
	l := layers{}
	var rel, save, register []float64
	baseText := alphabet.Decode(base)
	for i := range setup {
		if fl != nil {
			err := fl.f.close()
			fl = nil
			if err != nil {
				return nil, err
			}
		}
		liveHeap() // collect the previous round's fleet before timing
		if fl, err = setupTenants(r, baseText, targets, i); err != nil {
			return nil, err
		}
		setup[i], setupWall[i] = fl.total().Seconds(), fl.wall.Seconds()
		l.phases = append(l.phases, fl.phases)
		rel = append(rel, fl.relative.Seconds()/serveTenants)
		save = append(save, fl.save.Seconds())
		register = append(register, fl.register.Seconds())
	}
	liveHeap() // collect the last round's garbage before the warm-up
	ld := newServeLoad(r, targets, serveK, serveClients)

	if !r.opt.trace {
		all, _, err := ld.httpPhase(fl.f, r.warmup(), false, nil)
		if err != nil {
			return nil, err
		}
		ph, refs, err := measure(r, func(ref *hostRef) (phaseStats, error) {
			ph, _, err := ld.httpPhase(fl.f, r.phase(1), false, ref)
			return ph, err
		})
		if err != nil {
			return nil, err
		}
		live := liveHeap()
		all.add(ph)
		if err := ld.finish(all); err != nil {
			return &result{Attempted: all.reads, Failed: all.failed}, err
		}
		bytesPerBase := float64(fl.f.srv.Registry().Resident()) / float64(tenantBases)
		return &result{Attempted: all.reads, Failed: all.failed,
			Metrics: endToEnd(r, setup, setupWall, ph, refs, bytesPerBase, live)}, nil
	}

	// Traced mode: an untraced HTTP phase for the runtime counters and
	// the relative bridge's read split; a traced HTTP phase for the
	// worker's queue and search fragments; and the same routing run in
	// process through SearchMethodTraced, without and with tracers.
	hits0, corr0, err := fl.deltaCounters()
	if err != nil {
		return nil, err
	}
	before := readMem()
	plain, _, err := ld.httpPhase(fl.f, r.phase(4), false, nil)
	if err != nil {
		return nil, err
	}
	l.mem, l.memReads = memSince(before), plain.reads
	hits1, corr1, err := fl.deltaCounters()
	if err != nil {
		return nil, err
	}
	l.baseHits = perRead(hits1-hits0, plain.reads)
	l.corrections = perRead(corr1-corr0, plain.reads)
	httpTraced, sv, err := ld.httpPhase(fl.f, r.phase(4), true, nil)
	if err != nil {
		return nil, err
	}
	l.search, l.overhead, l.queue = sv.search, sv.overhead, sv.queue
	untraced, _, _, err := ld.inProcess(fl.f, r.phase(4), false)
	if err != nil {
		return nil, err
	}
	traced, lanes, locateNS, err := ld.inProcess(fl.f, r.phase(4), true)
	if err != nil {
		return nil, err
	}
	l.untracedRPS, l.tracedRPS = untraced.readsPerCPUSec(), traced.readsPerCPUSec()
	l.core, l.reads, l.locateNS = merge(lanes...), traced.reads, locateNS
	r.info("http reads_per_cpu_s untraced=%.1f traced=%.1f", plain.readsPerCPUSec(), httpTraced.readsPerCPUSec())
	all := plain
	for _, ph := range []phaseStats{httpTraced, untraced, traced} {
		all.add(ph)
	}
	if err := ld.finish(all); err != nil {
		return &result{Attempted: all.reads, Failed: all.failed}, err
	}

	l.relBuild, l.save, l.register = median(rel), median(save), median(register)
	l.relDelta = float64(fl.deltaBytes) / float64(tenantBases)
	rp, err := probeRank(base, genomes[0], targets[0].reads)
	if err != nil {
		return nil, err
	}
	l.rank, l.rel = rp.mono, rp.rel
	account(r, l.core, l.reads)
	if err := finishTrace(r, sv.frags); err != nil {
		return nil, err
	}
	return &result{Attempted: all.reads, Failed: all.failed, Metrics: l.metrics()}, nil
}

// tenantFleet is one set-up of the serve-tenants system, the CPU time
// each step of it took and the wall time of all of them.
type tenantFleet struct {
	f                                      *loopback
	names                                  []string
	build, relative, save, register, start time.Duration
	wall                                   time.Duration
	phases                                 bwtmatch.BuildPhases
	deltaBytes                             int
}

func (t *tenantFleet) total() time.Duration {
	return t.build + t.relative + t.save + t.register + t.start
}

// deltaCounters sums the registered tenants' relative BWT reads: those
// answered from the shared base and the delta corrections.
func (t *tenantFleet) deltaCounters() (baseHits, corrections float64, err error) {
	for _, name := range t.names {
		m, err := t.f.srv.Registry().Get(name)
		if err != nil {
			return 0, 0, err
		}
		rx, ok := m.(*bwtmatch.RelativeIndex)
		if !ok {
			return 0, 0, fmt.Errorf("tenant %s is not relative", name)
		}
		h, c := rx.DeltaCounters()
		baseHits += float64(h)
		corrections += float64(c)
	}
	return baseHits, corrections, nil
}

// setupTenants builds the base and the relative tenants, saves them,
// registers the tenants in a new server and starts its listener, timing
// each step.
func setupTenants(r *runner, baseText []byte, targets []serveTarget, round int) (*tenantFleet, error) {
	dir := filepath.Join(r.scratch, fmt.Sprintf("tenants-%d", round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &tenantFleet{}
	step := func(name string, d *time.Duration, fn func() error) error {
		r.main.Begin(name)
		c := startClock()
		err := fn()
		*d = cpuTime() - c.cpu
		t.wall += time.Since(c.wall)
		r.main.End()
		return err
	}
	var base *bwtmatch.Index
	if err := step("setup.base", &t.build, func() (err error) {
		base, err = bwtmatch.New(baseText, bwtmatch.WithBuildPhases(&t.phases))
		return err
	}); err != nil {
		return nil, err
	}
	rels := make([]*bwtmatch.RelativeIndex, len(targets))
	if err := step("setup.relative", &t.relative, func() (err error) {
		for i, tg := range targets {
			if rels[i], err = bwtmatch.NewRelative(base, tg.text); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	paths := make([]string, len(targets))
	if err := step("setup.save", &t.save, func() error {
		if err := base.SaveFile(filepath.Join(dir, "base.bwt")); err != nil {
			return err
		}
		for i, rx := range rels {
			paths[i] = filepath.Join(dir, targets[i].name+".bwt")
			rx.SetBasePath("base.bwt")
			if err := rx.SaveFile(paths[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, rx := range rels {
		t.deltaBytes += rx.DeltaBytes()
	}
	srv := server.New(server.Config{Workers: 1})
	if err := step("setup.register", &t.register, func() error {
		for i, tg := range targets {
			if err := srv.Register(tg.name, paths[i]); err != nil {
				return err
			}
			t.names = append(t.names, tg.name)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := step("setup.listen", &t.start, func() (err error) {
		t.f, err = listen(srv)
		return err
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// loopback is a kmserved Server on a loopback listener.
type loopback struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
}

func listen(srv *server.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &loopback{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the listener and the server and waits for Serve to
// return.
func (f *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(f.hs.Shutdown(ctx), f.srv.Shutdown(ctx))
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// serveTarget is one registered index the clients query.
type serveTarget struct {
	name  string
	text  []byte
	reads [][]byte
	wire  []server.Read
}

// serveLoad is the closed-loop load of one or more callers on a set of
// targets. Each caller keeps its route stream, read cursors and gate
// across phases.
type serveLoad struct {
	r       *runner
	targets []serveTarget
	k       int
	callers []*caller
}

// caller is one closed-loop client. It takes its reads from its own
// share of each target's pool, so callers never send the same read.
type caller struct {
	id     int
	route  *rand.Rand
	cursor []int
	gate   *gate
	buf    []hit
}

func newServeLoad(r *runner, targets []serveTarget, k, callers int) *serveLoad {
	ld := &serveLoad{r: r, targets: targets, k: k}
	texts := make([][]byte, len(targets))
	for t := range targets {
		tg := &ld.targets[t]
		texts[t] = tg.text
		tg.wire = make([]server.Read, len(tg.reads))
		for i, rd := range tg.reads {
			tg.wire[i] = server.Read{Seq: string(rd)}
		}
	}
	pick := rand.New(rand.NewSource(streamSeed(r.opt.seed, streamSample, 1)))
	for c := range callers {
		var sample []readKey
		for t, tg := range targets {
			lo := c * (len(tg.reads) / callers)
			sample = append(sample, pickSample(pick, t, lo, lo+sampleRegion, samplePerPool)...)
		}
		ld.callers = append(ld.callers, &caller{
			id:     c,
			route:  rand.New(rand.NewSource(streamSeed(r.opt.seed, streamRoute, c))),
			cursor: make([]int, len(targets)),
			gate:   newGate(texts, k, sample),
		})
	}
	return ld
}

// next routes the caller's next batch: a target drawn uniformly from
// its route stream and the next batchSize reads of its share.
func (c *caller) next(ld *serveLoad, ids []int) int {
	t := c.route.Intn(len(ld.targets))
	share := len(ld.targets[t].reads) / len(ld.callers)
	for i := range ids {
		ids[i] = c.id*share + c.cursor[t]%share
		c.cursor[t]++
	}
	return t
}

// serverStats are the worker-side figures of an HTTP phase.
type serverStats struct {
	search, overhead, queue []float64 // per batch, ms
	frags                   []obs.Fragment
}

// httpPhase runs every caller for d, each sending a batch over HTTP and
// waiting for the answer before the next. traced tags each request for
// the worker's trace fragments and wraps it in a span. A non-nil ref
// samples the host between batches.
func (ld *serveLoad) httpPhase(f *loopback, d time.Duration, traced bool, ref *hostRef) (phaseStats, serverStats, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: len(ld.callers)}
	defer tr.CloseIdleConnections()
	ctx := context.Background()
	if traced {
		ctx = obs.WithTraceRequest(ctx)
	}
	lanes := make([]*lane, len(ld.callers))
	if traced {
		for i := range lanes {
			lanes[i] = ld.r.newLane()
		}
	}
	phs := make([]phaseStats, len(ld.callers))
	svs := make([]serverStats, len(ld.callers))
	errs := make([]error, len(ld.callers))
	var wg sync.WaitGroup
	start := startClock()
	for i, c := range ld.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(f.url, client.WithHTTPClient(&http.Client{Transport: tr}))
			phs[i], svs[i], errs[i] = ld.httpCaller(ctx, c, cl, lanes[i], ref, start.wall.Add(d))
		}()
	}
	wg.Wait()
	var ph phaseStats
	var sv serverStats
	for i := range phs {
		ph.add(phs[i])
		sv.search = append(sv.search, svs[i].search...)
		sv.overhead = append(sv.overhead, svs[i].overhead...)
		sv.queue = append(sv.queue, svs[i].queue...)
		sv.frags = append(sv.frags, svs[i].frags...)
	}
	ph.end(start)
	return ph, sv, errors.Join(errs...)
}

func (ld *serveLoad) httpCaller(ctx context.Context, c *caller, cl *client.Client, l *lane, ref *hostRef, deadline time.Time) (phaseStats, serverStats, error) {
	var ph phaseStats
	var sv serverStats
	ids := make([]int, batchSize)
	reads := make([]server.Read, batchSize)
	for time.Now().Before(deadline) {
		t := c.next(ld, ids)
		tg := &ld.targets[t]
		for i, id := range ids {
			reads[i] = tg.wire[id]
		}
		ref.busy()
		l.Begin("http.batch")
		t0, c0 := time.Now(), cpuTime()
		resp, err := cl.Search(ctx, server.SearchRequest{Index: tg.name, K: ld.k, Reads: reads})
		lat, cpu := time.Since(t0), cpuTime()-c0
		ref.idle()
		ph.reads += batchSize
		if err == nil && len(resp.Results) != batchSize {
			err = fmt.Errorf("%d results for %d reads", len(resp.Results), batchSize)
		}
		if err != nil {
			l.End()
			ph.failed += batchSize
			ld.r.info("batch failed: %v", err)
			continue
		}
		ph.record(t0, lat, cpu/time.Duration(len(ld.callers)))
		sv.search = append(sv.search, resp.ElapsedMS)
		sv.overhead = append(sv.overhead, ms(lat)-resp.ElapsedMS)
		if l != nil {
			if len(resp.Trace) == 0 {
				l.End()
				return ph, sv, fmt.Errorf("traced request returned no fragment")
			}
			frag := resp.Trace[0]
			origin := time.Since(l.epoch) - lat
			for _, s := range frag.Spans {
				off, dur := time.Duration(s.StartUS*1e3), time.Duration(s.DurUS*1e3)
				l.Add("server."+s.Name, origin+off, dur)
				if s.Name == "queue" {
					sv.queue = append(sv.queue, ms(dur))
				}
			}
			if len(sv.frags) < keepFragments/len(ld.callers) {
				sv.frags = append(sv.frags, frag)
			}
		}
		l.End()
		for i, rr := range resp.Results {
			if rr.Error != "" {
				ph.failed++
				continue
			}
			c.buf = c.buf[:0]
			for _, m := range rr.Matches {
				c.buf = append(c.buf, hit{m.Pos, m.Mismatches})
			}
			c.gate.check(readKey{t, ids[i]}, tg.reads[ids[i]], c.buf)
		}
	}
	return ph, sv, nil
}

// inProcess runs every caller's routing for d without HTTP: each
// caller's goroutine runs its batch's reads one by one through the
// registered target's SearchMethodTraced, as a worker with Workers: 1
// does, with its own lane when traced. It returns the lanes and the
// summed Stats.LocateNS.
func (ld *serveLoad) inProcess(f *loopback, d time.Duration, traced bool) (phaseStats, []*lane, int64, error) {
	matchers := make([]bwtmatch.Matcher, len(ld.targets))
	for t, tg := range ld.targets {
		m, err := f.srv.Registry().Get(tg.name)
		if err != nil {
			return phaseStats{}, nil, 0, err
		}
		matchers[t] = m
	}
	lanes := make([]*lane, len(ld.callers))
	for i := range lanes {
		if traced {
			lanes[i] = ld.r.newLane()
		}
	}
	phs := make([]phaseStats, len(ld.callers))
	locate := make([]int64, len(ld.callers))
	var wg sync.WaitGroup
	start := startClock()
	for i, c := range ld.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phs[i], locate[i] = ld.inProcessCaller(c, matchers, lanes[i], start.wall.Add(d))
		}()
	}
	wg.Wait()
	var ph phaseStats
	var locateNS int64
	for i := range phs {
		ph.add(phs[i])
		locateNS += locate[i]
	}
	ph.end(start)
	return ph, lanes, locateNS, nil
}

func (ld *serveLoad) inProcessCaller(c *caller, matchers []bwtmatch.Matcher, l *lane, deadline time.Time) (phaseStats, int64) {
	var ph phaseStats
	var locateNS int64
	ids := make([]int, batchSize)
	answers := make([][]bwtmatch.Match, batchSize)
	errs := make([]error, batchSize)
	var tr bwtmatch.Tracer
	if l != nil {
		tr = l
	}
	for time.Now().Before(deadline) {
		t := c.next(ld, ids)
		tg := &ld.targets[t]
		l.Begin("batch")
		t0, c0 := time.Now(), cpuTime()
		for i, id := range ids {
			l.Begin("read")
			var st bwtmatch.Stats
			answers[i], st, errs[i] = matchers[t].SearchMethodTraced(tg.reads[id], ld.k, bwtmatch.AlgorithmA, tr)
			l.End()
			locateNS += st.LocateNS
		}
		ph.record(t0, time.Since(t0), (cpuTime()-c0)/time.Duration(len(ld.callers)))
		l.End()
		ph.reads += batchSize
		for i, id := range ids {
			if errs[i] != nil {
				ph.failed++
				continue
			}
			c.buf = c.buf[:0]
			for _, m := range answers[i] {
				c.buf = append(c.buf, hit{m.Pos, m.Mismatches})
			}
			c.gate.check(readKey{t, id}, tg.reads[id], c.buf)
		}
	}
	return ph, locateNS
}

// finish runs the complete comparison of every caller's sampled reads
// and prints the gate's tally.
func (ld *serveLoad) finish(ph phaseStats) error {
	gates := make([]*gate, len(ld.callers))
	for i, c := range ld.callers {
		gates[i] = c.gate
	}
	hits, compared, err := finish(gates, func(key readKey) []byte { return ld.targets[key.text].reads[key.read] })
	ld.r.info("gate reads=%d hits_checked=%d naive_compared=%d", ph.reads-ph.failed, hits, compared)
	if err != nil {
		return fmt.Errorf("%w: %v", errIncorrect, err)
	}
	return nil
}

// finishTrace writes the traced run's spans and the kept server
// fragments as one Chrome trace and validates it.
func finishTrace(r *runner, frags []obs.Fragment) error {
	path := r.tracePath()
	spans, dropped, err := writeTrace(path, r.lanes, frags)
	if err != nil {
		return err
	}
	r.info("trace path=%s spans=%d not_kept=%d server_fragments=%d valid=true", path, spans, dropped, len(frags))
	return nil
}
