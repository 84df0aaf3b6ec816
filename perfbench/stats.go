package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"plinius/internal/core"
	"plinius/internal/obs"
	"plinius/internal/simclock"
)

// percentile returns the q-th percentile (0 <= q <= 100) of xs by
// linear interpolation between the closest ranks, the same rule as
// numpy's default. It returns NaN for an empty sample and does not
// modify xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clocks are the modeled cost clocks charged by one framework: the
// enclave's (transitions, paging, boundary copies), the PM device's
// and the SSD's.
type clocks []*simclock.Clock

func frameworkClocks(f *core.Framework) clocks {
	return clocks{f.Enclave.Clock(), f.PM.Clock(), f.SSD.Clock()}
}

func (c clocks) modeled() time.Duration {
	var sum time.Duration
	for _, k := range c {
		sum += k.Modeled()
	}
	return sum
}

// timed runs fn and returns its cost on both clocks: the wall time of
// the call plus the modeled time charged to c across it.
func (c clocks) timed(fn func() error) (time.Duration, error) {
	m0 := c.modeled()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	return wall + c.modeled() - m0, err
}

// counters is a flattened view of metric registries, as obs.Flatten
// returns it.
type counters map[string]float64

func snapshot(regs ...*obs.Registry) counters { return obs.Flatten(regs...) }

// family sums every series of the named metric family: the bare name
// and every labelled series name{...}.
func (c counters) family(name string) float64 {
	var sum float64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// counterSpec names one per-layer count: the metric it is reported as
// and the registry family it is the delta of.
type counterSpec struct {
	metric, family, unit string
}

// layerCounters are the per-layer counts every workload reports, as
// deltas of the registries around the timed phase.
var layerCounters = []counterSpec{
	{"engine.sealed_bytes", "engine_sealed_bytes_total", "B/op"},
	{"engine.opened_bytes", "engine_opened_bytes_total", "B/op"},
	{"pm.bytes_stored", "pm_bytes_stored_total", "B/op"},
	{"pm.bytes_loaded", "pm_bytes_loaded_total", "B/op"},
	{"pm.flushes", "pm_flushes_total", "count/op"},
	{"pm.fences", "pm_fences_total", "count/op"},
	{"enclave.ecalls", "enclave_ecalls_total", "count/op"},
	{"enclave.page_swaps", "epc_page_swaps_total", "count/op"},
	{"serve.rejected", "serve_rejected_total", "count"},
	{"core.shard_restores", "shard_restores_total", "count/op"},
	{"core.shard_stalls", "shard_stage_stall_total", "count/op"},
	{"core.shard_prefetched", "shard_prefetched_restores_total", "count/op"},
}

// counterDeltas returns, for every layer counter, after minus before.
func counterDeltas(before, after counters) []float64 {
	out := make([]float64, len(layerCounters))
	for i, s := range layerCounters {
		out[i] = after.family(s.family) - before.family(s.family)
	}
	return out
}

// countLedger accumulates the per-operation deltas of the layer
// counters and remembers whether every operation moved each counter by
// exactly the same amount — a count that repeats exactly from run to
// run, whatever number of operations fits in the run.
type countLedger struct {
	ops    int
	total  []float64
	first  []float64 // deltas of the first record
	differ []bool    // a later record moved the counter differently
	multi  bool      // some record covered several operations
}

func newCountLedger() *countLedger {
	n := len(layerCounters)
	return &countLedger{total: make([]float64, n), differ: make([]bool, n)}
}

// add records the counter deltas d of ops operations. Exactness is
// only judged when every record covers a single operation.
func (l *countLedger) add(d []float64, ops int) {
	if ops != 1 {
		l.multi = true
	}
	if l.first == nil {
		l.first = append([]float64(nil), d...)
	}
	for i, v := range d {
		l.total[i] += v
		if v != l.first[i] {
			l.differ[i] = true
		}
	}
	l.ops += ops
}

// exact reports whether counter i moved by the same amount in every
// single-operation record.
func (l *countLedger) exact(i int) bool { return l.ops > 0 && !l.multi && !l.differ[i] }

// report adds every layer counter to r, per operation (totals for the
// "count" unit), marking the exact ones.
func (l *countLedger) report(r *report) {
	for i, s := range layerCounters {
		v := l.total[i]
		if s.unit != "count" && l.ops > 0 {
			v /= float64(l.ops)
		}
		note := "varies between operations"
		if l.exact(i) {
			note = "repeats exactly: every operation moved it by the same amount"
		}
		r.layer(s.metric, v, s.unit, "count", note)
	}
}

// aesRates records the mirror's AES-GCM throughput between two
// registry snapshots: sealed payload bytes per second of sealing in
// mirror_out, and restored bytes per second of opening in mirror_in,
// each over the seconds summed across the mirror's workers.
func aesRates(r *report, before, after counters) {
	rate := func(bytes, secs string) float64 {
		s := after.family(secs) - before.family(secs)
		if s <= 0 {
			return 0
		}
		return (after.family(bytes) - before.family(bytes)) / s / 1e9
	}
	r.layer("mirror.seal_gbps", rate("mirror_sealed_payload_bytes_total", "mirror_seal_seconds_total"),
		"GB/s", "wall", "sealed payload bytes per second of sealing, per worker")
	r.layer("mirror.open_gbps", rate("mirror_restored_payload_bytes_total", "mirror_open_seconds_total"),
		"GB/s", "wall", "restored payload bytes per second of opening, per worker")
}

// enclaveModeled records the modeled enclave time per operation from
// the registry counters, for enclaves the benchmark cannot reach (the
// serving replicas and shards): transitions plus EPC paging at the
// profile's costs. Boundary copies are not counted.
func enclaveModeled(r *report, before, after counters, ops float64, op string) {
	prof := profile().Enclave
	crossings := after.family("enclave_ecalls_total") - before.family("enclave_ecalls_total") +
		after.family("enclave_ocalls_total") - before.family("enclave_ocalls_total")
	swaps := after.family("epc_page_swaps_total") - before.family("epc_page_swaps_total")
	d := crossings*float64(prof.TransitionCost()) + swaps*float64(prof.PageSwapCost)
	r.layer("enclave.modeled_ms", d/float64(time.Millisecond)/ops, "ms/op", "modeled",
		"transitions + EPC paging per "+op+", from the registry counters (boundary copies not counted)")
}
