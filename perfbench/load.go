package main

import (
	"sync"
	"time"
)

// sample is the outcome of one request issued by a load generator.
type sample struct {
	latency time.Duration // open loop: from due time; closed loop: from send
	late    time.Duration // open loop: how far behind its due time the send was
	done    time.Time     // completion
	err     error
}

// pacer is the time source of the open-loop generator, swappable in
// tests.
type pacer struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var realPacer = pacer{now: time.Now, sleep: time.Sleep}

// dueTime is when request i of an open loop started at start with
// rate requests per second is due.
func dueTime(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
}

// openLoop sends requests on a fixed schedule of rate per second for
// dur, whether or not earlier ones have completed: request i is due at
// dueTime(start, rate, i) and runs send(i) on its own goroutine. Each
// latency counts from the due time, so a stall also charges the wait
// it imposes on the requests due behind it. It returns once every
// request has completed, samples in due order.
func openLoop(p pacer, rate float64, dur time.Duration, send func(i int) error) []sample {
	start := p.now()
	n := int(rate * dur.Seconds())
	out := make([]sample, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := dueTime(start, rate, i)
		if wait := due.Sub(p.now()); wait > 0 {
			p.sleep(wait)
		}
		out[i].late = p.now().Sub(due)
		if out[i].late < 0 {
			out[i].late = 0
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			err := send(i)
			out[i].done = p.now()
			out[i].latency = out[i].done.Sub(due)
			out[i].err = err
		}(i, due)
	}
	wg.Wait()
	return out
}

// closedLoop keeps clients requests outstanding for dur: each client
// sends its next request only after the previous one completes. Client
// c's k-th request is send(c, k). It returns every client's samples
// and the wall time from start until the last request completed.
func closedLoop(clients int, dur time.Duration, send func(client, k int) error) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				t0 := time.Now()
				err := send(c, k)
				done := time.Now()
				per[c] = append(per[c], sample{latency: done.Sub(t0), done: done, err: err})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, elapsed
}

// latenciesMS returns the latencies of the successful samples in ms.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.err == nil {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// windowCount is how many equal time windows a phase is split into for
// windowed statistics.
const windowCount = 5

// windowed splits the phase [start, start+dur) into windowCount equal
// windows by completion time, applies stat to each window's successful
// samples with the window's length, and returns the median over the
// windows that have samples. A stall confined to one window then moves
// the result less than a stall anywhere moves a whole-phase tail
// percentile or rate. Samples completing after the phase are left out.
func windowed(ss []sample, start time.Time, dur time.Duration, stat func(w []sample, length time.Duration) float64) float64 {
	length := dur / windowCount
	wins := make([][]sample, windowCount)
	for _, s := range ss {
		i := int(s.done.Sub(start) / length)
		if s.err == nil && i >= 0 && i < windowCount {
			wins[i] = append(wins[i], s)
		}
	}
	var vals []float64
	for _, w := range wins {
		if len(w) > 0 {
			vals = append(vals, stat(w, length))
		}
	}
	return median(vals)
}

// pct returns a windowed statistic: the q-th latency percentile in ms.
func pct(q float64) func([]sample, time.Duration) float64 {
	return func(w []sample, _ time.Duration) float64 { return percentile(latenciesMS(w), q) }
}

// closedRate returns a windowed statistic: the throughput of a closed
// loop with clients requests outstanding, each counting units, by
// Little's law: clients over the mean latency. Unlike a count of
// completions per window, it does not step in whole micro-batches.
func closedRate(clients int, units float64) func([]sample, time.Duration) float64 {
	return func(w []sample, _ time.Duration) float64 {
		var sum time.Duration
		for _, s := range w {
			sum += s.latency
		}
		return float64(clients) * units * float64(len(w)) / sum.Seconds()
	}
}
