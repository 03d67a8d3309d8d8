package main

import (
	"errors"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The speed of a shared host moves the CPU-time figures as much as the
// program does: neighbours contend for its caches and memory, not for
// its clock. A random walk over a 16 MiB table slows with them as the
// program's rank lookups do, where a register-only loop does not. So a
// measured run also times that walk while no batch is in flight, and
// the end-to-end time metrics are scaled to a host on which one step of
// the walk costs refNominalNS. perfbench/README.md gives the
// measurements behind this.
const (
	refTableWords = 1 << 21 // 16 MiB, about the size of the map index
	refSteps      = 100_000 // per thread and sample: ~20 ms
	refThreads    = 2       // as many as the workloads keep busy
	refNominalNS  = 200.0   // ns per step the scaled figures assume
	refSamples    = 60      // samples spread over a measured phase
)

// refSample is one timing of the reference walk: when it ran and its
// CPU time per step in ns.
type refSample struct {
	at time.Time
	ns float64
}

// hostRef is the reference walk and the lock that keeps it from
// overlapping a batch.
type hostRef struct {
	mu    sync.RWMutex // held shared by each batch, alone by a sample
	table []uint64
	sink  uint64 // keeps the walks' results live
}

func newHostRef() *hostRef {
	t := make([]uint64, refTableWords)
	x := uint64(0)
	for i := range t {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		t[i] = z ^ z>>31
	}
	return &hostRef{table: t}
}

// busy and idle bracket one batch; both do nothing on a nil hostRef.
func (h *hostRef) busy() {
	if h != nil {
		h.mu.RLock()
	}
}

func (h *hostRef) idle() {
	if h != nil {
		h.mu.RUnlock()
	}
}

// walk takes steps dependent loads from the table: each load's address
// comes from the previous value, so the walk waits on memory as rank
// lookups do.
func (h *hostRef) walk(steps int, x uint64) uint64 {
	mask := uint64(len(h.table) - 1)
	var acc uint64
	for range steps {
		v := h.table[(x*0x9e3779b97f4a7c15>>20)&mask]
		acc += uint64(bits.OnesCount64(v & (x | 0xffff)))
		x = v ^ acc
	}
	return acc
}

// sample runs the walk on refThreads locked threads at once and
// returns their CPU time per step in ns. The caller holds h.mu alone
// or no batch runs.
func (h *hostRef) sample() (float64, error) {
	cpu := make([]time.Duration, refThreads)
	sums := make([]uint64, refThreads)
	var wg sync.WaitGroup
	for i := range cpu {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			sums[i] = h.walk(refSteps, uint64(i+1))
			cpu[i] = threadCPU() - t0
		}()
	}
	wg.Wait()
	var total time.Duration
	for i, c := range cpu {
		total += c
		h.sink += sums[i]
	}
	if total <= 0 {
		return 0, errors.New("host reference walk took no measurable CPU time")
	}
	return float64(total) / float64(refThreads*refSteps), nil
}

// sampleEvery samples now and then every d, each sample waiting for
// the batches in flight, until stop is called; stop returns the
// samples once the sampler has ended.
func (h *hostRef) sampleEvery(d time.Duration) (stop func() ([]refSample, error)) {
	var samples []refSample
	var err error
	take := func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		at := time.Now()
		//kmvet:ignore lockheld holding the lock while the walkers run is what keeps batches out of a sample
		s, serr := h.sample()
		if serr != nil {
			err = serr
			return
		}
		samples = append(samples, refSample{at.Add(time.Since(at) / 2), s})
	}
	take()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				take()
			}
		}
	}()
	return func() ([]refSample, error) {
		close(done)
		wg.Wait()
		return samples, err
	}
}

// scaleBatches returns the batches with each CPU time scaled to the
// reference host: multiplied by refNominalNS over the host's cost per
// step when the batch was answered. That cost is the median of the
// three samples around the one nearest in time, so that one sample
// caught in a short burst does not scale its batches alone.
func scaleBatches(bs []batchTime, refs []refSample) []batchTime {
	smooth := make([]float64, len(refs))
	for i := range refs {
		smooth[i] = median(refSamplesNS(refs[max(i-1, 0):min(i+2, len(refs))]))
	}
	out := make([]batchTime, len(bs))
	for i, b := range bs {
		j, _ := slices.BinarySearchFunc(refs, b.end, func(s refSample, t time.Time) int { return s.at.Compare(t) })
		if j == len(refs) || (j > 0 && b.end.Sub(refs[j-1].at) < refs[j].at.Sub(b.end)) {
			j--
		}
		b.cpu *= refNominalNS / smooth[j]
		out[i] = b
	}
	return out
}

func refSamplesNS(refs []refSample) []float64 {
	ns := make([]float64, len(refs))
	for i, s := range refs {
		ns[i] = s.ns
	}
	return ns
}

// measure runs one measured phase while sampling the host every
// refSamples-th of the run; the reference table is garbage once it
// returns.
func measure(r *runner, phase func(ref *hostRef) (phaseStats, error)) (phaseStats, []refSample, error) {
	ref := newHostRef()
	stop := ref.sampleEvery(r.phase(refSamples))
	ph, err := phase(ref)
	refs, serr := stop()
	return ph, refs, errors.Join(err, serr)
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
