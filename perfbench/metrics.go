package main

import (
	"runtime"
	"slices"
	"time"

	"bwtmatch"
	"bwtmatch/internal/obs"
)

// setupRounds is how many times a run sets the system up; setup_s is
// the median and the last set-up serves the measured phase.
const setupRounds = 3

// phaseStats is what one measured closed-loop phase yields.
type phaseStats struct {
	reads, failed int64
	batches       []batchTime // answered batches
	wall, cpu     time.Duration
	steal         float64 // host steal share over the phase, -1 if unknown
}

// batchTime is one answered batch: when its answer arrived, its latency
// as the caller saw it and the process CPU time it took, both in ms.
type batchTime struct {
	end      time.Time
	lat, cpu float64
}

func (p *phaseStats) add(q phaseStats) {
	p.reads += q.reads
	p.failed += q.failed
	p.batches = append(p.batches, q.batches...)
}

// record appends a batch sent at t0 that was answered after lat and
// took cpu of the process's CPU time.
func (p *phaseStats) record(t0 time.Time, lat, cpu time.Duration) {
	p.batches = append(p.batches, batchTime{end: t0.Add(lat), lat: ms(lat), cpu: ms(cpu)})
}

func (p phaseStats) lats() []float64 {
	out := make([]float64, len(p.batches))
	for i, b := range p.batches {
		out[i] = b.lat
	}
	return out
}

func (p phaseStats) cpuLats() []float64 {
	out := make([]float64, len(p.batches))
	for i, b := range p.batches {
		out[i] = b.cpu
	}
	return out
}

// end stamps the phase's wall time, CPU time and host steal share.
func (p *phaseStats) end(c clock) {
	p.wall, p.cpu, p.steal = time.Since(c.wall), cpuTime()-c.cpu, c.stealShare()
}

func (p phaseStats) readsPerSec() float64 { return ratio(float64(p.reads), p.wall.Seconds()) }

func (p phaseStats) readsPerCPUSec() float64 { return ratio(float64(p.reads), p.cpu.Seconds()) }

// memDelta is the runtime's allocation and GC work over a phase.
type memDelta struct {
	allocs, gcs uint64
	pause       time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocs: after.Mallocs - before.Mallocs,
		gcs:    uint64(after.NumGC - before.NumGC),
		pause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// liveHeap is the heap in use after two forced collections, in bytes.
// The second drops what the first moved to sync.Pool's victim caches:
// scratch the program keeps between calls, ~2 MB on map-k4, whose size
// after one collection depends on timing.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMem().HeapAlloc
}

// The end-to-end time metrics are medians over windows. A measured
// phase's batches, in the order they were answered, are cut into up to
// maxWindows consecutive windows of at least minWindowBatches each, so
// that every window's p90 has ten batches beyond it. Each window yields
// its reads per CPU-second and CPU-time percentiles, and a metric is the
// median of its window figures. A neighbour that slows the host for a
// few seconds then moves a minority of windows and not the median,
// where it would supply most of the tail of all batches pooled.
const (
	minWindowBatches = 100
	maxWindows       = 15
)

// windows cuts batches, in the order they were answered, into up to
// maxWindows consecutive windows of at least minWindowBatches each, or
// one window holding all of them when there are fewer.
func windows(bs []batchTime) [][]batchTime {
	s := slices.Clone(bs)
	slices.SortStableFunc(s, func(a, b batchTime) int { return a.end.Compare(b.end) })
	n := min(max(len(s)/minWindowBatches, 1), maxWindows)
	out := make([][]batchTime, n)
	for i := range out {
		out[i] = s[i*len(s)/n : (i+1)*len(s)/n]
	}
	return out
}

// windowMedian is the median over windows of one figure of each window.
func windowMedian(ws [][]batchTime, figure func(phaseStats) float64) float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = figure(phaseStats{batches: w})
	}
	return median(vals)
}

// batchReadsPerCPUSec is reads answered per CPU-second spent in the
// batches that answered them.
func (p phaseStats) batchReadsPerCPUSec() float64 {
	var cpu float64
	for _, b := range p.batches {
		cpu += b.cpu
	}
	return ratio(float64(len(p.batches)*batchSize), cpu/1e3)
}

func (p phaseStats) cpuP50() float64 { return percentile(p.cpuLats(), 50) }

func (p phaseStats) cpuP90() float64 { return percentile(p.cpuLats(), 90) }

// endToEnd assembles the end-to-end metrics of an untraced run from
// the CPU time of each set-up round, the measured phase and the host
// reference samples taken during it. The time metrics are scaled to the
// reference host: each batch by the samples around it, set-up by the
// median of all of them, which follows the host's level over the run
// better than a sample taken just after a build does. The unscaled,
// pooled and wall-clock figures are printed for reference.
func endToEnd(r *runner, setup, setupWall []float64, ph phaseStats, refs []refSample, bytesPerBase float64, live uint64) map[string]metric {
	ws := windows(ph.batches)
	scaled := windows(scaleBatches(ph.batches, refs))
	ns := refSamplesNS(refs)
	r.info("setup rounds=%d cpu_s=%.3f wall_s=%.3f", len(setup), setup, setupWall)
	r.info("host ref_ns_per_step=%.2f samples=%d min=%.2f max=%.2f",
		median(ns), len(ns), slices.Min(ns), slices.Max(ns))
	r.info("batches n=%d windows=%d least_beyond_p90=%d reads=%d failed=%d cpu_s=%.3f",
		len(ph.batches), len(ws), beyond(len(ph.batches)/len(ws), 90), ph.reads, ph.failed, ph.cpu.Seconds())
	r.info("unscaled setup_s=%.4f reads_per_cpu_s=%.1f batch_cpu_p50_ms=%.3f batch_cpu_p90_ms=%.3f",
		median(setup), windowMedian(ws, phaseStats.batchReadsPerCPUSec),
		windowMedian(ws, phaseStats.cpuP50), windowMedian(ws, phaseStats.cpuP90))
	r.info("pooled reads_per_cpu_s=%.1f batch_cpu_p50_ms=%.3f batch_cpu_p90_ms=%.3f",
		ph.batchReadsPerCPUSec(), ph.cpuP50(), ph.cpuP90())
	r.info("wall reads_per_s=%.1f batch_p50_ms=%.3f batch_p90_ms=%.3f wall_s=%.3f host_steal=%.3f",
		ph.readsPerSec(), percentile(ph.lats(), 50), percentile(ph.lats(), 90), ph.wall.Seconds(), ph.steal)
	return map[string]metric{
		"setup_s":              {median(setup) * refNominalNS / median(ns), "s"},
		"reads_per_cpu_s":      {windowMedian(scaled, phaseStats.batchReadsPerCPUSec), "reads/cpu_s"},
		"batch_cpu_p50_ms":     {windowMedian(scaled, phaseStats.cpuP50), "ms"},
		"batch_cpu_p90_ms":     {windowMedian(scaled, phaseStats.cpuP90), "ms"},
		"answered_frac":        {1 - ratio(float64(ph.failed), float64(ph.reads)), "fraction"},
		"index_bytes_per_base": {bytesPerBase, "B/base"},
		"peak_rss_mb":          {float64(obs.PeakRSS()) / 1e6, "MB"},
		"live_heap_mb":         {float64(live) / 1e6, "MB"},
	}
}

// layers collects the figures of a traced run.
type layers struct {
	core     profile // lanes that called SearchMethodTraced
	reads    int64   // reads those lanes answered
	locateNS int64   // their summed Stats.LocateNS

	rank, rel rankCost // fmindex and relative rank layers
	relBuild  float64  // CPU s per relative tenant build
	relDelta  float64  // tenant-resident bytes per tenant base

	corrections, baseHits float64 // relative BWT reads per read

	phases         []bwtmatch.BuildPhases // one per set-up round
	save, register float64                // CPU s

	search, overhead, queue []float64 // per server batch, ms

	mem                    memDelta // untraced phase
	memReads               int64    // reads of the untraced phase
	untracedRPS, tracedRPS float64  // reads per CPU-second
}

// metrics assembles the per-layer metrics. Values are per read unless
// the name says otherwise.
func (l *layers) metrics() map[string]metric {
	p := l.core
	phi, trav, read := p.spans["phi"], p.spans["traverse"], p.spans["read"]
	merges := float64(p.events[obs.EvMerge])
	expands := float64(p.events[obs.EvExpand])
	per := func(v float64) float64 { return perRead(v, l.reads) }
	phase := func(f func(bwtmatch.BuildPhases) int64) float64 {
		var s []float64
		for _, ph := range l.phases {
			s = append(s, float64(f(ph))/1e9)
		}
		return median(s)
	}
	return map[string]metric{
		"core.phi_us":                   {per(us(phi.total)), "us"},
		"core.phi_steps":                {per(float64(argVal(phi.args, "step_calls"))), "count"},
		"core.traverse_self_us":         {per(us(trav.self)), "us"},
		"core.steps":                    {per(float64(argVal(trav.args, "step_calls"))), "count"},
		"core.leaves":                   {per(float64(argVal(trav.args, "leaves"))), "count"},
		"core.nodes":                    {per(float64(argVal(trav.args, "nodes"))), "count"},
		"core.memo_hits":                {per(float64(argVal(trav.args, "memo_hits"))), "count"},
		"core.memo_hit_ratio":           {ratio(merges, merges+expands), "ratio"},
		"core.fallbacks":                {per(float64(argVal(trav.args, "fallbacks"))), "count"},
		"bwtmatch.read_self_us":         {per(us(read.self)), "us"},
		"bwtmatch.read_us":              {per(us(read.total)), "us"},
		"fmindex.stepall_ns":            {l.rank.stepAllNS, "ns"},
		"fmindex.matchlen_ns_per_step":  {l.rank.matchLenNSStep, "ns"},
		"relative.stepall_ns":           {l.rel.stepAllNS, "ns"},
		"relative.matchlen_ns_per_step": {l.rel.matchLenNSStep, "ns"},
		"relative.corrections":          {l.corrections, "count"},
		"relative.base_hits":            {l.baseHits, "count"},
		"fmindex.locate_us":             {per(float64(l.locateNS) / 1e3), "us"},
		"fmindex.locate_lf_steps":       {per(float64(argVal(p.evArgs[obs.EvLocate], "lf_steps"))), "count"},
		"fmindex.build_sa_s":            {phase(func(b bwtmatch.BuildPhases) int64 { return b.SANS }), "s"},
		"fmindex.build_bwt_s":           {phase(func(b bwtmatch.BuildPhases) int64 { return b.BWTNS }), "s"},
		"fmindex.build_occ_s":           {phase(func(b bwtmatch.BuildPhases) int64 { return b.OccNS }), "s"},
		"fmindex.build_pack_s":          {phase(func(b bwtmatch.BuildPhases) int64 { return b.PackNS }), "s"},
		"relative.build_s":              {l.relBuild, "s"},
		"relative.delta_bytes_per_base": {l.relDelta, "B/base"},
		"bwtmatch.save_s":               {l.save, "s"},
		"server.register_s":             {l.register, "s"},
		"server.search_ms_p50":          {median(l.search), "ms"},
		"server.overhead_ms_p50":        {median(l.overhead), "ms"},
		"server.queue_ms_p50":           {median(l.queue), "ms"},
		"runtime.allocs":                {perRead(float64(l.mem.allocs), l.memReads), "count"},
		"runtime.gc_cycles":             {perRead(float64(l.mem.gcs), l.memReads), "count"},
		"runtime.gc_pause_ms":           {perRead(ms(l.mem.pause), l.memReads), "ms"},
		"trace.overhead_frac":           {ratio(l.untracedRPS, l.tracedRPS) - 1, "fraction"},
	}
}

// account prints where a traced read's time went: the self times of
// the spans inside the read span, which sum to the traced per-read
// time, with their shares.
func account(r *runner, p profile, reads int64) {
	read := p.spans["read"]
	total := perRead(us(read.total), reads)
	r.info("account traced reads=%d read_us=%.2f", reads, total)
	for _, name := range []string{"phi", "traverse", "locate", "read"} {
		t := p.spans[name]
		self := perRead(us(t.self), reads)
		r.info("account %-8s self_us=%9.2f share=%.3f", name, self, ratio(self, total))
	}
	if b := p.spans["batch"]; b.count > 0 {
		r.info("account batch n=%d batch_us=%.1f reads_per_batch=%.1f",
			b.count, us(b.total)/float64(b.count), float64(reads)/float64(b.count))
	}
}
