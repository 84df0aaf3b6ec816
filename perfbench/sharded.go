package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"plinius/internal/core"
	"plinius/internal/enclave"
	"plinius/internal/obs"
)

// The serve-sharded workload: a core.ShardGroup on its own serving
// host whose usable EPC is about a third of the model, so every batch
// streams each layer range back from PM. Connected layers keep the
// compute per batch small, so restores (PM load + open) dominate.
const (
	shardLayers  = 6
	shardWidth   = 1024
	shardHostEPC = 8 << 20
	shardBatch   = 4               // small batches keep compute below the restores
	shardPool    = 32 * shardBatch // distinct request images
)

// shardModelConfig is six 1024-wide connected layers over a 28x28
// input, then a 10-way classifier: ~24 MB of parameters.
func shardModelConfig() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[net]\nbatch=%d\nlearning_rate=0.1\nchannels=1\nheight=28\nwidth=28\n\n", shardBatch)
	for i := 0; i < shardLayers; i++ {
		fmt.Fprintf(&sb, "[connected]\noutput=%d\nactivation=relu\n\n", shardWidth)
	}
	sb.WriteString("[connected]\noutput=10\nactivation=linear\n\n[softmax]\n")
	return sb.String()
}

type shardSystem struct {
	f *core.Framework
	g *core.ShardGroup
}

func newShardSystem(seed int64) (shardSystem, error) {
	f, err := core.New(core.Config{
		ModelConfig:        shardModelConfig(),
		Server:             profile(),
		PMBytes:            80 << 20,
		Seed:               seed,
		TrainOverheadBytes: 1 << 20,
	})
	if err != nil {
		return shardSystem{}, err
	}
	host := enclave.NewHost(profile().Enclave, enclave.WithHostEPC(shardHostEPC))
	g, err := f.NewShardGroup(core.ShardOptions{
		Host:          host,
		Batch:         shardBatch,
		OverheadBytes: 64 << 10,
		Seed:          seed + 100,
	})
	if err != nil {
		return shardSystem{}, err
	}
	return shardSystem{f, g}, nil
}

func runServeSharded(o options, r *report) error {
	sys, err := setUp(r, "core.New (24 MB model) + NewShardGroup on an 8 MiB host (publish, attest shards)",
		func() (shardSystem, error) { return newShardSystem(o.seed) },
		func(s shardSystem) error { return s.g.Close() })
	if err != nil {
		return err
	}
	defer sys.g.Close()
	g := sys.g
	r.info("shards", float64(g.Shards()), "count", "-", fmt.Sprintf("window %d, streaming %v", g.Window(), g.Streaming()))
	p, err := newPool(shardPool, shardBatch, o.seed+1, sys.f.ClassifyBatch)
	if err != nil {
		return err
	}
	batches := make([][]float32, shardPool/shardBatch)
	for b := range batches {
		for _, img := range p.images[b*shardBatch : (b+1)*shardBatch] {
			batches[b] = append(batches[b], img...)
		}
	}
	classify := func(ctx context.Context, b int) error {
		got, err := g.ClassifyBatchCtx(ctx, batches[b])
		if err != nil {
			return err
		}
		return samePredictions(got, p.want[b*shardBatch:(b+1)*shardBatch])
	}
	r.op(classify(context.Background(), 0)) // warm-up: the first restores

	res := shardPhase(g, sys.f, o.phase(), len(batches), r, classify, false)
	lat := latenciesMS(res.samples)
	if !o.traced {
		r.endToEnd("main_ms", median(lat), "ms", "wall",
			fmt.Sprintf("sharded_batch_p50_ms: %d-image batch, %d batches", shardBatch, len(lat)))
		r.endToEnd("aux_ms", windowed(res.samples, res.start, o.phase(), pct(90)), "ms", "wall",
			"sharded batch p90, median over time windows")
		r.endToEnd("rate_per_s", windowed(res.samples, res.start, o.phase(), closedRate(g.Window(), shardBatch)), "1/s", "wall",
			fmt.Sprintf("images per second: %d batches outstanding over mean batch latency, median over time windows", g.Window()))
		return nil
	}
	tres := shardPhase(g, sys.f, o.phase(), len(batches), r, classify, true)
	stage := func(prefix string) []float64 {
		out := make([]float64, len(tres.spans))
		for i, spans := range tres.spans {
			for _, s := range spans {
				if strings.HasPrefix(s.Stage, prefix+"/") {
					out[i] += ms(s.Dur)
				}
			}
		}
		return out
	}
	r.layer("core.shard_restore_ms", median(stage("restore")), "ms", "wall", "per batch: restore spans summed over shards")
	r.layer("core.shard_compute_ms", median(stage("compute")), "ms", "wall", "per batch: compute spans summed over shards")
	for _, st := range []string{"wait", "open", "seal"} {
		r.info("shard_"+st+"_ms", median(stage(st)), "ms", "wall", "per batch: "+st+" spans summed over shards")
	}
	r.layer("pm.modeled_ms", ms(tres.pmModeled)/float64(len(tres.spans)), "ms/op", "modeled", "PM clock per batch")
	enclaveModeled(r, tres.before, tres.after, float64(len(tres.spans)), "batch")
	aesRates(r, tres.before, tres.after)
	tres.counts.report(r)
	overhead(r, median(lat), median(latenciesMS(tres.samples)), "sharded batch")
	return nil
}

// shardResult is one phase's measurements.
type shardResult struct {
	samples       []sample
	start         time.Time
	spans         [][]obs.SpanRec // traced: each batch's pipeline spans
	pmModeled     time.Duration
	counts        *countLedger
	before, after counters
}

// shardPhase keeps the group's window of batches outstanding for dur.
// Traced, each batch carries an obs.Trace through ClassifyBatchCtx,
// and with a window of one the layer counters are taken around every
// batch.
func shardPhase(g *core.ShardGroup, f *core.Framework, dur time.Duration, nb int, r *report,
	classify func(context.Context, int) error, traced bool) shardResult {
	res := shardResult{counts: newCountLedger()}
	regs := []*obs.Registry{obs.Default(), g.Metrics()}
	perBatch := traced && g.Window() == 1
	var mu sync.Mutex
	res.before = snapshot(regs...)
	pm0 := f.PM.Clock().Modeled()
	res.start = time.Now()
	res.samples, _ = closedLoop(g.Window(), dur, func(c, k int) error {
		b := (c + k*g.Window()) % nb
		if !traced {
			return classify(context.Background(), b)
		}
		var before counters
		if perBatch {
			before = snapshot(regs...)
		}
		tr := obs.NewTrace()
		err := classify(obs.ContextWithTrace(context.Background(), tr), b)
		mu.Lock()
		defer mu.Unlock()
		res.spans = append(res.spans, tr.Spans())
		if perBatch {
			res.counts.add(counterDeltas(before, snapshot(regs...)), 1)
		}
		return err
	})
	res.pmModeled = f.PM.Clock().Modeled() - pm0
	res.after = snapshot(regs...)
	if !perBatch {
		res.counts.add(counterDeltas(res.before, res.after), len(res.samples))
	}
	r.samples(res.samples)
	return res
}
