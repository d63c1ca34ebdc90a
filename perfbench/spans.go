package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public API it drives. Spans live in memory and are written out when the
// run ends. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Iter   int    `json:"iter"` // workload iteration the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records nested spans from one goroutine. A nil *tracer records
// nothing, so untraced runs share the traced code path at the cost of a nil
// check.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	iter  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span as a child of the innermost open span and returns its
// id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: t.iter, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// setIter stamps spans opened from now on with workload iteration i.
func (t *tracer) setIter(i int) {
	if t != nil {
		t.iter = i
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other;
// the covered part is the length of the union of their intervals, clipped
// to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTime is one span name's totals across a run.
type layerTime struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// byName folds spans into per-name totals and self times, and returns the
// ratio of all self time to the roots' wall time. Because every span is
// recorded on one goroutine, children nest inside their parent and do not
// overlap, so the ratio is 1 when the accounting is complete.
func byName(spans []span) (map[string]layerTime, float64) {
	self := selfTimes(spans)
	out := map[string]layerTime{}
	var selfSum, rootWall int64
	for i, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalNS += s.dur()
		lt.SelfNS += self[i]
		out[s.Name] = lt
		selfSum += self[i]
		if s.Parent < 0 {
			rootWall += s.dur()
		}
	}
	if rootWall == 0 {
		return out, 0
	}
	return out, float64(selfSum) / float64(rootWall)
}
