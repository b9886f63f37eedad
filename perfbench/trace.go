package main

import (
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer of the pipeline.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
	// allocStart and allocEnd are the Go heap's cumulative allocated bytes
	// (MemStats.TotalAlloc) at the span's boundaries.
	allocStart, allocEnd uint64
}

// tracer records spans around the benchmark's own calls into the
// pipeline's public functions. Spans stay in memory and are summarised when
// the job ends. A nil *tracer is the untraced path: every method is a
// no-op, so a workload takes the same code path traced or not.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, allocStart: heapAllocated(), start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id and every span opened inside it that is still open.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	alloc := heapAllocated()
	for n := len(t.open); n > 0; n-- {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		t.spans[top].end, t.spans[top].allocEnd = now, alloc
		if top == id {
			return
		}
	}
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.name] += (s.end - s.start - covered(s, children[i])).Seconds()
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo > cur.hi:
			total += cur.hi - cur.lo
			cur = v
		case v.hi > cur.hi:
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// allocMB returns, per span name, the summed heap bytes allocated inside
// the spans, in MiB.
func allocMB(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.name] += float64(s.allocEnd-s.allocStart) / (1 << 20)
	}
	return out
}
