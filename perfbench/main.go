// Command perfbench is the repository benchmark. One invocation
// generates one workload's inputs from a seed, sets the system up,
// drives it in a closed loop for a fixed time, checks every answer
// against the generated text and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload map-k1 --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with the benchmark's own tracers attached and prints the
// per-layer metrics instead. perfbench/README.md defines every
// workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // build-output directory: scratch files and traces
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named input set and the function that measures it.
type workload struct {
	name string
	run  func(r *runner) (*result, error)
}

var workloads = []workload{
	{"map-k1", func(r *runner) (*result, error) { return runMap(r, 1) }},
	{"map-k4", func(r *runner) (*result, error) { return runMap(r, 4) }},
	{"serve-tenants", runServe},
}

// errIncorrect marks a run whose answers failed the correctness gate.
var errIncorrect = errors.New("correctness gate failed")

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name: map-k1, map-k4 or serve-tenants")
	fs.Int64Var(&opt.seed, "seed", 1, "seed the workload's read stream and tenant edits are drawn from")
	fs.Float64Var(&opt.seconds, "seconds", 30, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	fs.StringVar(&opt.outDir, "out", ".bench_build", "directory for scratch files and written traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	if (trace != 0 && trace != 1) || opt.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opt.workload)
		return 2
	}
	r, err := newRunner(opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer r.cleanup()
	r.info("perfbench workload=%s seed=%d seconds=%g trace=%d", opt.workload, opt.seed, opt.seconds, trace)
	r.info("env go=%s gomaxprocs=%d nproc=%d goos=%s goarch=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	res, err := wl.run(r)
	if errors.Is(err, errIncorrect) && res != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		res.Correct, res.Metrics = false, map[string]metric{}
		printResult(stdout, res)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not a number\n", name)
			return 1
		}
	}
	res.Correct = true
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func printResult(w io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runner carries one run's settings, its info stream and, in traced
// runs, the main goroutine's tracer.
type runner struct {
	opt     options
	out     io.Writer
	scratch string    // per-run directory for saved index files
	epoch   time.Time // zero point of every tracer of the run
	main    *lane     // set-up spans; nil when untraced
	lanes   []*lane   // every tracer of the run, main first
}

func newRunner(opt options, out io.Writer) (*runner, error) {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.outDir, "run-")
	if err != nil {
		return nil, err
	}
	r := &runner{opt: opt, out: out, scratch: dir, epoch: time.Now()}
	if opt.trace {
		r.main = r.newLane()
	}
	return r, nil
}

// newLane returns a tracer on its own timeline lane; one per goroutine.
func (r *runner) newLane() *lane {
	l := newLane(r.epoch, len(r.lanes)+1, keepSpans)
	r.lanes = append(r.lanes, l)
	return l
}

func (r *runner) cleanup() { os.RemoveAll(r.scratch) }

// info prints one "#"-prefixed line of run information; the result
// line stays last.
func (r *runner) info(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// phase is the length of one measured phase: the run's seconds split
// into parts.
func (r *runner) phase(parts int) time.Duration {
	return time.Duration(r.opt.seconds * float64(time.Second) / float64(parts))
}

// warmup is how long the system is driven, with every answer checked,
// before the measured phase of an untraced run: a twentieth of the
// run's seconds.
func (r *runner) warmup() time.Duration { return r.phase(20) }

// tracePath is where a traced run writes its Chrome trace.
func (r *runner) tracePath() string {
	return filepath.Join(r.opt.outDir, "traces", r.opt.workload+".json")
}
