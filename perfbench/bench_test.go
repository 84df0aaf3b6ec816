package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plinius/internal/darknet"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4}, {95, 4.8},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestDueTime(t *testing.T) {
	start := time.Unix(100, 0)
	if got := dueTime(start, 1000, 1500).Sub(start); got != 1500*time.Millisecond {
		t.Errorf("request 1500 at 1000/s due after %v, want 1.5s", got)
	}
	if got := dueTime(start, 3, 1).Sub(start); got != time.Second/3 {
		t.Errorf("request 1 at 3/s due after %v, want %v", got, time.Second/3)
	}
}

// fakeClock is a virtual clock: sleeping advances it by the slept time
// plus a fixed oversleep, standing in for a generator that wakes late.
type fakeClock struct {
	mu        sync.Mutex
	t         time.Time
	oversleep time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d + c.oversleep)
	c.mu.Unlock()
}

func (c *fakeClock) pacer() pacer { return pacer{now: c.now, sleep: c.sleep} }

func TestOpenLoopSchedule(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ss := openLoop(clk.pacer(), 100, time.Second, func(int) error { return nil })
	if len(ss) != 100 {
		t.Fatalf("1s at 100/s issued %d requests, want 100", len(ss))
	}
	for i, s := range ss {
		if s.late != 0 || s.err != nil {
			t.Fatalf("request %d: late %v, err %v on a punctual clock", i, s.late, s.err)
		}
	}
	// The generator slept exactly up to each due time, so it last woke
	// at the 100th request's due time.
	if got := clk.now().Sub(time.Unix(0, 0)); got != 990*time.Millisecond {
		t.Errorf("generator ended at %v, want 990ms", got)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	// A generator that wakes 3ms late sends each request 3ms late.
	clk := &fakeClock{t: time.Unix(0, 0), oversleep: 3 * time.Millisecond}
	ss := openLoop(clk.pacer(), 10, time.Second, func(int) error { return nil })
	if len(ss) != 10 {
		t.Fatalf("issued %d requests, want 10", len(ss))
	}
	for i, s := range ss[1:] {
		if s.late != 3*time.Millisecond {
			t.Errorf("request %d late by %v, want 3ms", i+1, s.late)
		}
	}
	// On the real clock, a request's latency runs from its due time, so
	// it includes the generator's lateness even when the request itself
	// takes no time.
	lateSleep := pacer{now: time.Now, sleep: func(d time.Duration) { time.Sleep(d + 10*time.Millisecond) }}
	ss = openLoop(lateSleep, 50, 100*time.Millisecond, func(int) error { return nil })
	for i, s := range ss[1:] {
		if s.late < 10*time.Millisecond || s.latency < s.late {
			t.Errorf("request %d: late %v, latency %v; want late >= 10ms and latency >= late", i+1, s.late, s.latency)
		}
	}
}

func TestOpenLoopDoesNotWaitForCompletions(t *testing.T) {
	// Request 0 completes only once the last request has been sent. A
	// generator that waited for completions would never send it.
	const n = 20
	var issued atomic.Int32
	lastSent := make(chan struct{})
	done := make(chan []sample)
	go func() {
		done <- openLoop(realPacer, 2000, n*time.Second/2000, func(i int) error {
			if issued.Add(1) == n {
				close(lastSent)
			}
			if i == 0 {
				<-lastSent
			}
			return nil
		})
	}()
	select {
	case ss := <-done:
		if len(ss) != n {
			t.Fatalf("issued %d requests, want %d", len(ss), n)
		}
		if ss[0].latency < ss[n-1].latency {
			t.Errorf("blocked request 0 latency %v below request %d's %v", ss[0].latency, n-1, ss[n-1].latency)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("open loop waited for a completion before sending the next request")
	}
}

func TestClosedLoopKeepsClientsOutstanding(t *testing.T) {
	var inFlight, peak atomic.Int32
	ss, elapsed := closedLoop(4, 50*time.Millisecond, func(c, k int) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		if c == 0 && k == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if peak.Load() > 4 {
		t.Errorf("%d requests outstanding, want at most 4", peak.Load())
	}
	if len(ss) < 4 || elapsed < 50*time.Millisecond {
		t.Errorf("%d samples in %v", len(ss), elapsed)
	}
	if got := len(latenciesMS(ss)); got != len(ss)-1 {
		t.Errorf("%d successful latencies of %d samples with one failure", got, len(ss))
	}
}

func testNet(t *testing.T) *darknet.Network {
	t.Helper()
	net, err := darknet.ParseConfig(strings.NewReader(darknet.MNISTConfig(1, 2, 1)), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSameParams(t *testing.T) {
	net := testNet(t)
	want := params(net)
	if err := sameParams(want, net); err != nil {
		t.Fatalf("identical parameters rejected: %v", err)
	}
	p := net.Layers[0].Params()[0]
	old := p[3]
	p[3] = math.Float32frombits(math.Float32bits(old) ^ 1) // one ulp
	if err := sameParams(want, net); !errors.Is(err, errWrong) {
		t.Errorf("one-ulp change: got %v, want errWrong", err)
	}
	p[3] = old
	want[0][3] = 0
	p[3] = float32(math.Copysign(0, -1))
	if err := sameParams(want, net); !errors.Is(err, errWrong) {
		t.Errorf("-0 for +0 passed: %v (the check must compare bits, not values)", err)
	}
	copyParams(want, net)
	if err := sameParams(want, net); err != nil {
		t.Errorf("after copyParams: %v", err)
	}
	if err := sameParams(want[:len(want)-1], net); !errors.Is(err, errWrong) {
		t.Errorf("missing buffer: got %v, want errWrong", err)
	}
}

func TestLossFell(t *testing.T) {
	if err := lossFell(2.3, 0.4); err != nil {
		t.Errorf("falling loss rejected: %v", err)
	}
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	for _, c := range [][2]float32{{2.3, 2.3}, {2.3, 2.5}, {2.3, nan}, {2.3, inf}, {nan, 1}} {
		if err := lossFell(c[0], c[1]); !errors.Is(err, errWrong) {
			t.Errorf("lossFell(%v, %v) = %v, want errWrong", c[0], c[1], err)
		}
	}
}

func TestSamePredictions(t *testing.T) {
	if err := samePredictions([]int{1, 2, 3}, []int{1, 2, 3}); err != nil {
		t.Errorf("equal predictions rejected: %v", err)
	}
	if err := samePredictions([]int{1, 2, 4}, []int{1, 2, 3}); !errors.Is(err, errWrong) {
		t.Errorf("wrong class: got %v, want errWrong", err)
	}
	if err := samePredictions([]int{1, 2}, []int{1, 2, 3}); !errors.Is(err, errWrong) {
		t.Errorf("missing prediction: got %v, want errWrong", err)
	}
}

func TestReportCountsWrongOutputsAsFailed(t *testing.T) {
	r := newReport()
	r.op(nil)
	r.op(errors.New("transient"))
	r.op(samePredictions([]int{1}, []int{2}))
	res, err := r.result(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 3 || res.Failed != 2 || res.Correct {
		t.Errorf("got attempted %d failed %d correct %v, want 3, 2, false", res.Attempted, res.Failed, res.Correct)
	}
}

func TestResultLine(t *testing.T) {
	r := newReport()
	r.op(nil)
	for _, d := range endToEndMetrics[:len(endToEndMetrics)-1] {
		r.endToEnd(d.name, 1.5, d.unit, "wall", "")
	}
	if _, err := r.result(false); err == nil {
		t.Error("result with an end-to-end metric missing succeeded")
	}
	last := endToEndMetrics[len(endToEndMetrics)-1]
	r.endToEnd(last.name, 2, "bogus", "wall", "")
	if _, err := r.result(false); err == nil {
		t.Error("result with a metric in the wrong unit succeeded")
	}
	r.endToEnd(last.name, 2, last.unit, "wall", "")
	var buf bytes.Buffer
	if err := r.print(&buf, "test", false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Errorf("result keys: %s", lines[len(lines)-1])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEndMetrics) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEndMetrics))
	}

	traced, err := r.result(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Metrics) != len(layerMetrics) {
		t.Errorf("traced result has %d metrics, want every layer metric (%d)", len(traced.Metrics), len(layerMetrics))
	}
}

func TestCountLedgerExactness(t *testing.T) {
	n := len(layerCounters)
	per := func(v float64) []float64 {
		d := make([]float64, n)
		d[0] = v
		d[1] = 7
		return d
	}
	l := newCountLedger()
	l.add(per(10), 1)
	l.add(per(12), 1)
	if l.exact(0) || !l.exact(1) {
		t.Errorf("exact(0)=%v exact(1)=%v, want false, true", l.exact(0), l.exact(1))
	}
	r := newReport()
	l.report(r)
	if got := r.layers[layerCounters[0].metric].Value; got != 11 {
		t.Errorf("per-operation value %v, want 11", got)
	}
	l.add(per(10), 2)
	if l.exact(1) {
		t.Error("a record covering several operations kept the counter exact")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(nil)
	_ = tr.do("outer", func() error {
		_ = tr.do("inner", func() error { time.Sleep(20 * time.Millisecond); return nil })
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	outer, inner := tr.spans[0], tr.spans[1]
	if inner.parent != 0 || outer.parent != -1 {
		t.Fatalf("parents: outer %d inner %d", outer.parent, inner.parent)
	}
	if outer.child != inner.cost || outer.self() != outer.cost-inner.cost {
		t.Errorf("outer self %v, cost %v, inner %v", outer.self(), outer.cost, inner.cost)
	}
	if outer.self() < 5*time.Millisecond || outer.self() >= outer.cost {
		t.Errorf("outer self time %v of %v", outer.self(), outer.cost)
	}
	var none *tracer
	called := false
	_ = none.do("x", func() error { called = true; return nil })
	if !called {
		t.Error("nil tracer did not run the call")
	}
}
