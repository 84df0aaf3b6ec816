package main

import (
	"fmt"
	"sort"
	"time"
)

// span is one recorded call into a layer, timed on both clocks.
type span struct {
	name   string
	parent int // index of the enclosing span, -1 at the root
	cost   time.Duration
	child  time.Duration // cost covered by direct child spans
}

// self is the span's cost minus the part its child spans cover.
func (s span) self() time.Duration { return s.cost - s.child }

// tracer records nested spans around the benchmark's calls into the
// program's layers. Spans are kept in memory and summarized at the end
// of the run. A nil tracer records nothing, so untraced runs pay only
// a nil check per call site.
type tracer struct {
	clk   clocks
	spans []span
	open  []int // stack of open span indices
}

func newTracer(clk clocks) *tracer { return &tracer{clk: clk} }

// do runs fn inside a span called name, nested under the innermost
// open span.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent})
	t.open = append(t.open, idx)
	cost, err := t.clk.timed(fn)
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].cost = cost
	if parent >= 0 {
		t.spans[parent].child += cost
	}
	return err
}

// selfTimes returns, per span name, the self time of every span of
// that name in milliseconds.
func (t *tracer) selfTimes() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.name] = append(out[s.name], ms(s.self()))
	}
	return out
}

// costs returns the full cost of every span called name, in ms.
func (t *tracer) costs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.cost))
		}
	}
	return out
}

// summary adds one info row per span name: its median self time and
// its share of all recorded self time.
func (t *tracer) summary(r *report) {
	self := t.selfTimes()
	var total float64
	for _, xs := range self {
		for _, x := range xs {
			total += x
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var sum float64
		for _, x := range self[n] {
			sum += x
		}
		r.info("self:"+n, median(self[n]), "ms", "wall+modeled",
			fmt.Sprintf("median self time over %d spans, %.1f%% of all self time", len(self[n]), 100*sum/total))
	}
}
