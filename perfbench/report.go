package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// declared is a metric the benchmark promises, with its unit.
type declared struct{ name, unit string }

// End-to-end metrics, reported by every workload with tracing off.
// Each workload fills the three operation slots with its own figures
// (README.md maps them to the per-workload names).
var endToEndMetrics = []declared{
	{"main_ms", "ms"}, {"aux_ms", "ms"}, {"rate_per_s", "1/s"},
	{"setup_s", "s"}, {"peak_rss_mb", "MiB"},
}

// Per-layer metrics, reported by every workload's traced run. A
// workload that does not exercise a layer reports it as zero.
var layerMetrics = []declared{
	{"darknet.train_batch_ms", "ms"}, {"darknet.build_ms", "ms"},
	{"core.replica_batch_ms", "ms"},
	{"mirror.data_batch_ms", "ms"}, {"mirror.out_ms", "ms"}, {"mirror.seal_gbps", "GB/s"},
	{"mirror.open_model_ms", "ms"}, {"mirror.in_ms", "ms"}, {"mirror.open_gbps", "GB/s"},
	{"romulus.open_ms", "ms"}, {"core.recover_self_ms", "ms"},
	{"engine.sealed_bytes", "B/op"}, {"engine.opened_bytes", "B/op"},
	{"pm.bytes_stored", "B/op"}, {"pm.bytes_loaded", "B/op"},
	{"pm.flushes", "count/op"}, {"pm.fences", "count/op"}, {"pm.modeled_ms", "ms/op"},
	{"enclave.ecalls", "count/op"}, {"enclave.page_swaps", "count/op"}, {"enclave.modeled_ms", "ms/op"},
	{"storage.ssd_save_ms", "ms"}, {"storage.ssd_restore_ms", "ms"},
	{"fig7.mirror_save_ms", "ms"}, {"fig7.mirror_restore_ms", "ms"}, {"fig7.recover_ms", "ms"},
	{"fig7.save_speedup", "x"}, {"fig7.restore_speedup", "x"}, {"fig7.recover_speedup", "x"},
	{"serve.batch_size_mean", "count"}, {"serve.in_server_p50_ms", "ms"},
	{"serve.open_p99_ms", "ms"}, {"serve.gen_late_ms", "ms"}, {"serve.rejected", "count"},
	{"core.shard_restores", "count/op"}, {"core.shard_stalls", "count/op"},
	{"core.shard_prefetched", "count/op"},
	{"core.shard_restore_ms", "ms"}, {"core.shard_compute_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one printed line of the human-readable report.
type row struct {
	kind, name  string
	value       float64
	unit, clock string
	note        string
}

// report collects one run's operations, correctness verdicts and
// metrics.
type report struct {
	attempted, failed, wrong int
	errs                     []string
	rows                     []row
	e2e, layers              map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// maxErrs bounds how many failure messages a report keeps.
const maxErrs = 8

// op counts one attempted operation. A non-nil err counts it failed;
// an err wrapping errWrong — an output that failed a correctness
// check — also makes the run incorrect.
func (r *report) op(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if errors.Is(err, errWrong) {
		r.wrong++
	}
	r.note(err)
}

// samples counts every sample of a load generator as one operation.
func (r *report) samples(ss []sample) {
	for _, s := range ss {
		r.op(s.err)
	}
}

func (r *report) note(err error) {
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

// endToEnd records a gated end-to-end metric.
func (r *report) endToEnd(name string, v float64, unit, clock, note string) {
	r.e2e[name] = metric{v, unit}
	r.rows = append(r.rows, row{"end-to-end", name, v, unit, clock, note})
}

// layer records a per-layer metric.
func (r *report) layer(name string, v float64, unit, clock, note string) {
	r.layers[name] = metric{v, unit}
	r.rows = append(r.rows, row{"layer", name, v, unit, clock, note})
}

// info prints a figure that is neither gated nor a layer metric: the
// workload's own names for its gated figures, and operation counts.
func (r *report) info(name string, v float64, unit, clock, note string) {
	r.rows = append(r.rows, row{"info", name, v, unit, clock, note})
}

// result builds the result line: the end-to-end metrics, or with
// traced the per-layer ones. Layers the workload did not reach are
// reported as zero. A declared end-to-end metric missing from an
// untraced run, or any metric recorded under another unit than the
// declared one, is a bug in the benchmark.
func (r *report) result(traced bool) (result, error) {
	res := result{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return res, fmt.Errorf("no operation was attempted")
	}
	want, got := endToEndMetrics, r.e2e
	if traced {
		want, got = layerMetrics, r.layers
	}
	for _, d := range want {
		m, ok := got[d.name]
		switch {
		case !ok && traced:
			m = metric{0, d.unit}
		case !ok:
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return res, fmt.Errorf("metric %s recorded in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		res.Metrics[d.name] = m
	}
	return res, nil
}

// print writes the human-readable report followed by the result line.
func (r *report) print(w io.Writer, workload string, traced bool) error {
	res, err := r.result(traced)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s: %d operations attempted, %d failed, outputs correct: %v\n",
		workload, res.Attempted, res.Failed, res.Correct)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	rows := append([]row(nil), r.rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].kind < rows[j].kind })
	for _, x := range rows {
		fmt.Fprintf(w, "  %-10s %-26s %14s %-9s %-13s %s\n",
			x.kind, x.name, strconv.FormatFloat(x.value, 'g', 6, 64), x.unit, "["+x.clock+"]", x.note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// peakRSSMB returns the process's peak resident set size in MiB, read
// from /proc/self/status (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
