package obs

import (
	"sync"
	"time"
)

// EventKind classifies trace events. The instant kinds mirror the
// paper's work accounting (see the package comment).
type EventKind uint8

const (
	// EvBegin and EvEnd delimit a named phase span (e.g. "phi",
	// "traverse", "locate").
	EvBegin EventKind = iota
	EvEnd
	// EvExpand fires when a multi-row BWT interval is explored fresh
	// (one M-tree run node materialized by live search).
	EvExpand
	// EvMerge fires when a recurring BWT interval is resolved by
	// derivation instead of re-searching the BWT — the paper's merge
	// short-circuit. Traced merge events equal Stats.MemoHits.
	EvMerge
	// EvFallback fires when a derivation has to resume live search
	// (cached subtree explored with a smaller budget or depth).
	EvFallback
	// EvLeaf fires once per maximal root-to-leaf path terminal of the
	// (conceptual) M-tree. Traced leaf events equal Stats.MTreeLeaves,
	// the paper's n′.
	EvLeaf
	// EvStep marks a batch of BWT backward-extension steps. Nothing in
	// the module emits it; it keeps its slot so EvLocate keeps its value.
	EvStep
	// EvLocate fires once per Locate call, with the resolved row count
	// and the LF-mapping steps walked to sampled suffix-array entries.
	EvLocate
)

// String names the kind as it appears in trace output.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvEnd:
		return "end"
	case EvExpand:
		return "expand"
	case EvMerge:
		return "merge"
	case EvFallback:
		return "fallback"
	case EvLeaf:
		return "leaf"
	case EvStep:
		return "step"
	case EvLocate:
		return "locate"
	default:
		return "unknown"
	}
}

// Arg is one named integer attached to an event.
type Arg struct {
	Key string
	Val int64
}

// Tracer receives search-path events. Implementations must be safe for
// use from a single search goroutine; the Recorder implementation is
// additionally safe for concurrent use. A nil Tracer means tracing is
// disabled — every emit site guards with a nil check, so the disabled
// cost is one compare-and-branch per potential event.
type Tracer interface {
	// Begin opens a named phase span.
	Begin(name string)
	// End closes the innermost open span, attaching args to it.
	End(args ...Arg)
	// Emit records one instant event.
	Emit(kind EventKind, args ...Arg)
}

// Event is one recorded trace entry.
type Event struct {
	Kind EventKind
	Name string        // span name for EvBegin/EvEnd, kind name otherwise
	T    time.Duration // offset from the recorder's start
	TID  int           // logical track (one per read in batch traces)
	Args []Arg
}

// Recorder implements Tracer by recording timestamped events in memory.
// It is safe for concurrent use; concurrent emitters should distinguish
// themselves via SetTID tracks (or serialize, as kmsearch -trace does).
type Recorder struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
	stack  []string
	tid    int
}

// NewRecorder starts an empty recorder; event timestamps are offsets
// from this call.
func NewRecorder() *Recorder { return &Recorder{start: time.Now(), tid: 1} }

// SetTID switches the logical track stamped on subsequent events.
// Chrome trace viewers render each track as its own row.
func (r *Recorder) SetTID(tid int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tid = tid
}

// Begin implements Tracer.
func (r *Recorder) Begin(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stack = append(r.stack, name)
	r.events = append(r.events, Event{Kind: EvBegin, Name: name, T: time.Since(r.start), TID: r.tid})
}

// End implements Tracer.
func (r *Recorder) End(args ...Arg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := ""
	if n := len(r.stack); n > 0 {
		name = r.stack[n-1]
		r.stack = r.stack[:n-1]
	}
	r.events = append(r.events, Event{Kind: EvEnd, Name: name, T: time.Since(r.start), TID: r.tid, Args: args})
}

// Emit implements Tracer.
func (r *Recorder) Emit(kind EventKind, args ...Arg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Kind: kind, Name: kind.String(), T: time.Since(r.start), TID: r.tid, Args: args})
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// CountKind returns how many events of the kind were recorded.
func (r *Recorder) CountKind(kind EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// SumArg totals the named argument across all events of the kind.
func (r *Recorder) SumArg(kind EventKind, key string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.events {
		if e.Kind != kind {
			continue
		}
		for _, a := range e.Args {
			if a.Key == key {
				total += a.Val
			}
		}
	}
	return total
}
