package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bwtmatch/internal/obs"
)

// keepSpans caps the spans each lane retains for the written Chrome
// trace. Totals are folded online, so the cap never changes a metric.
const keepSpans = 20000

// numKinds bounds the obs.EventKind values a lane counts.
const numKinds = int(obs.EvLocate) + 1

// lane is the benchmark's obs.Tracer. Each goroutine owns one, so it
// takes no locks. Begin and End take timestamps and fold every closed
// span into per-name totals (count, duration, self time, summed End
// args); Emit bumps a per-kind counter and sums the event's args. The
// first keep spans are also retained for the Chrome trace written at
// exit. A nil lane records nothing, so untraced code paths can call it.
type lane struct {
	epoch   time.Time
	tid     int
	stack   []frame
	totals  map[string]*spanTotal
	events  [numKinds]int64
	evArgs  [numKinds][]obs.Arg
	kept    []obs.Span
	keep    int
	dropped int
}

// frame is an open span.
type frame struct {
	name  string
	start time.Duration
	child time.Duration // summed durations of its closed children
}

// spanTotal aggregates every closed span of one name.
type spanTotal struct {
	count int64
	total time.Duration
	self  time.Duration
	args  []obs.Arg // End args summed by key
}

func newLane(epoch time.Time, tid, keep int) *lane {
	return &lane{epoch: epoch, tid: tid, keep: keep, totals: map[string]*spanTotal{}}
}

// Begin implements obs.Tracer.
func (l *lane) Begin(name string) {
	if l == nil {
		return
	}
	l.stack = append(l.stack, frame{name: name, start: time.Since(l.epoch)})
}

// End implements obs.Tracer. An End without an open span is ignored.
func (l *lane) End(args ...obs.Arg) {
	if l == nil || len(l.stack) == 0 {
		return
	}
	now := time.Since(l.epoch)
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	l.close(f.name, f.start, now-f.start, f.child, args)
}

// Add records a span measured elsewhere, such as a server's trace
// fragment, as a closed child of the innermost open span.
func (l *lane) Add(name string, start, dur time.Duration, args ...obs.Arg) {
	if l == nil {
		return
	}
	l.close(name, start, dur, 0, args)
}

// Emit implements obs.Tracer.
func (l *lane) Emit(kind obs.EventKind, args ...obs.Arg) {
	if l == nil || int(kind) >= numKinds {
		return
	}
	l.events[kind]++
	l.evArgs[kind] = sumArgs(l.evArgs[kind], args)
}

func (l *lane) close(name string, start, dur, child time.Duration, args []obs.Arg) {
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += dur
	}
	t := l.totals[name]
	if t == nil {
		t = &spanTotal{}
		l.totals[name] = t
	}
	t.count++
	t.total += dur
	t.self += selfTime(dur, child)
	t.args = sumArgs(t.args, args)
	if len(l.kept) >= l.keep {
		l.dropped++
		return
	}
	s := obs.Span{Name: name, TID: l.tid, StartUS: us(start), DurUS: us(dur)}
	if len(args) > 0 {
		s.Args = make(map[string]int64, len(args))
		for _, a := range args {
			s.Args[a.Key] = a.Val
		}
	}
	l.kept = append(l.kept, s)
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(dur, children time.Duration) time.Duration {
	return max(dur-children, 0)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sumArgs adds args into dst by key.
func sumArgs(dst, args []obs.Arg) []obs.Arg {
next:
	for _, a := range args {
		for i := range dst {
			if dst[i].Key == a.Key {
				dst[i].Val += a.Val
				continue next
			}
		}
		dst = append(dst, a)
	}
	return dst
}

func argVal(args []obs.Arg, key string) int64 {
	for _, a := range args {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// profile is the merge of several lanes' totals.
type profile struct {
	spans  map[string]spanTotal
	events [numKinds]int64
	evArgs [numKinds][]obs.Arg
}

func merge(lanes ...*lane) profile {
	p := profile{spans: map[string]spanTotal{}}
	for _, l := range lanes {
		for name, t := range l.totals {
			m := p.spans[name]
			m.count += t.count
			m.total += t.total
			m.self += t.self
			m.args = sumArgs(m.args, t.args)
			p.spans[name] = m
		}
		for k := range l.events {
			p.events[k] += l.events[k]
			p.evArgs[k] = sumArgs(p.evArgs[k], l.evArgs[k])
		}
	}
	return p
}

// writeTrace renders every lane's retained spans, plus any server
// fragments, as one Chrome trace at path and validates what it wrote.
func writeTrace(path string, lanes []*lane, server []obs.Fragment) (spans, dropped int, err error) {
	own := obs.Fragment{Process: "perfbench"}
	for _, l := range lanes {
		own.Spans = append(own.Spans, l.kept...)
		dropped += l.dropped
	}
	spans = len(own.Spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	if err := obs.WriteChromeTraceMulti(f, append([]obs.Fragment{own}, server...)); err != nil {
		f.Close() //kmvet:ignore closeerr the write already failed; its error is the one to report
		return 0, 0, fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	rf, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer rf.Close()
	if err := obs.ValidateChromeTrace(rf); err != nil {
		return 0, 0, err
	}
	return spans, dropped, nil
}
