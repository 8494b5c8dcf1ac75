package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Spans of one operation share Op; Parent is the index of the enclosing
// span, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
	op    int
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	now := time.Since(t.epoch)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: now, End: now})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

// child records an already-measured interval (a server-side phase read from
// its query log, an engine probe sample) as a child of span parent, laid
// out back to back from the parent's start.
func (t *tracer) child(parent int, name string, at, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	start := t.spans[parent].Start + at
	t.spans = append(t.spans, span{Name: name, Op: t.spans[parent].Op, Parent: parent, Start: start, End: start + d})
}

// startOp makes the following spans belong to operation op.
func (t *tracer) startOp(op int) {
	if t != nil {
		t.op = op
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its direct children cover.
// Children of one span never overlap (the run is one closed-loop client and
// synthesized children are laid end to end), so covered time is the sum of
// the children's durations, clipped to the parent.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		self := s.dur() - covered[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// write dumps every span as one JSON line in recording order; a span's
// line number (from 0) is the index its children name as Parent.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// cost is what one call took: wall-clock time; the CPU time the whole
// process spent meanwhile (client, servers, shards and the Go runtime
// together); and own, the CPU time of the calling thread, which is the
// call's own when its goroutine is locked to the thread and the call does
// all its work there. CPU time excludes time the host stole from this
// machine.
type cost struct{ wall, cpu, own time.Duration }

func (c cost) plus(d cost) cost { return cost{c.wall + d.wall, c.cpu + d.cpu, c.own + d.own} }

// timed runs fn inside a span named name and returns its cost and the
// span's index (-1 untraced). Traced, the wall time is the span's own, so
// span bookkeeping counts as tracing overhead.
func timed(t *tracer, name string, fn func()) (cost, int) {
	i := t.begin(name)
	cpu0, own0, wall0 := processCPU(), threadCPU(), time.Now()
	fn()
	c := cost{wall: time.Since(wall0)}
	c.own = threadCPU() - own0
	c.cpu = processCPU() - cpu0
	t.end(i)
	if i >= 0 {
		c.wall = t.spans[i].dur()
	}
	return c, i
}
