// Command perfbench is the repository's benchmark: one command that
// runs a workload against the Plinius layers, checks every output, and
// prints each metric by name, unit and clock, then one JSON result
// line.
//
//	bash perfbench/run.sh --workload checkpoint --seed 1 --seconds 25 --trace 0
//
// Workloads: train, checkpoint, serve, serve-sharded (see README.md).
// With --trace 0 the result line holds the end-to-end metrics. With
// --trace 1 the run measures half its time untraced and half traced,
// and the result line holds the per-layer metrics and the tracing
// overhead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"plinius/internal/core"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// workloads maps each workload name to its runner. A runner measures
// for o.seconds and records operations and metrics into r.
var workloads = map[string]func(o options, r *report) error{
	"train":         runTrain,
	"checkpoint":    runCheckpoint,
	"serve":         runServe,
	"serve-sharded": runServeSharded,
}

// profile is the machine cost model every workload runs on.
func profile() core.ServerProfile { return core.SGXEmlPM() }

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 25, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	drive, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	o := options{seed: seed, seconds: time.Duration(seconds) * time.Second, traced: trace == 1}
	r := newReport()
	if err := drive(o, r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.endToEnd("peak_rss_mb", rss, "MiB", "process", "peak resident set size of the run (VmHWM)")
	return r.print(os.Stdout, name, o.traced)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupRuns is how many times each workload builds its system from
// scratch; setup_s is the median of those builds. The last build is
// the one measured.
const setupRuns = 5

// setUp builds a workload's system setupRuns times, tears down every
// build but the last, records setup_s, and returns the last build.
func setUp[T any](r *report, what string, build func() (T, error), teardown func(T) error) (T, error) {
	var (
		sys   T
		times []float64
	)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := teardown(sys); err != nil {
				return sys, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			// Collect the discarded build before the next one, so the
			// peak RSS measures one system, not setupRuns of them.
			runtime.GC()
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return sys, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	r.endToEnd("setup_s", median(times), "s", "wall",
		fmt.Sprintf("median of %d set-ups: %s", setupRuns, what))
	return sys, nil
}

// phase is how long one measured phase lasts: a traced run splits its
// time between an untraced and a traced phase.
func (o options) phase() time.Duration {
	if o.traced {
		return o.seconds / 2
	}
	return o.seconds
}

// overhead records the tracing overhead: how much slower the traced
// phase's median operation was than the untraced phase's.
func overhead(r *report, untraced, traced float64, op string) {
	r.layer("trace.overhead_pct", 100*(traced-untraced)/untraced, "%", "wall+modeled",
		fmt.Sprintf("median %s, traced %.4g ms vs untraced %.4g ms", op, traced, untraced))
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
