package main

import (
	"context"
	"fmt"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
	"plinius/internal/obs"
	"plinius/internal/serve"
)

// The serve workload: a serve.Server with two replicas batching up to
// 32 requests, driven first by an open loop at a fixed rate, then by a
// closed loop holding a fixed number of requests outstanding.
const (
	serveReplicas  = 2
	serveMaxBatch  = 32
	serveRate      = 1000 // open-loop requests per second
	serveClients   = 64   // closed-loop requests outstanding
	serveOpenShare = 0.3  // share of the phase spent in the open loop
	serveTrainIter = 10   // training iterations before the model is served
	servePool      = 1024 // distinct request images
)

// pool is a set of request images with the framework's own
// classification of each, the reference served predictions must equal.
type pool struct {
	images [][]float32
	want   []int
}

// newPool generates n images from seed and classifies them with
// classify in chunks of batch.
func newPool(n, batch int, seed int64, classify func([]float32) ([]int, error)) (pool, error) {
	ds := mnist.Synthetic(n, seed)
	in := mnist.Rows * mnist.Cols
	p := pool{images: make([][]float32, n)}
	for i := range p.images {
		p.images[i] = ds.Images[i*in : (i+1)*in]
	}
	for start := 0; start < n; start += batch {
		end := min(start+batch, n)
		cls, err := classify(ds.Images[start*in : end*in])
		if err != nil {
			return p, fmt.Errorf("reference classification: %w", err)
		}
		p.want = append(p.want, cls...)
	}
	return p, nil
}

type serveSystem struct {
	f   *core.Framework
	srv *serve.Server
}

func newServeSystem(seed int64, traceKeep int) (serveSystem, error) {
	f, err := core.New(core.Config{
		ModelConfig: darknet.MNISTConfig(2, 8, serveMaxBatch),
		Server:      profile(),
		PMBytes:     16 << 20,
		Seed:        seed,
	})
	if err != nil {
		return serveSystem{}, err
	}
	if err := f.LoadDataset(mnist.Synthetic(512, seed)); err != nil {
		return serveSystem{}, err
	}
	if err := f.Train(context.Background(), core.StopAt(serveTrainIter)); err != nil {
		return serveSystem{}, err
	}
	srv, err := serve.New(context.Background(), f, serve.Options{
		Workers:   serveReplicas,
		MaxBatch:  serveMaxBatch,
		Seed:      seed,
		TraceKeep: traceKeep,
	})
	if err != nil {
		return serveSystem{}, err
	}
	return serveSystem{f, srv}, nil
}

// serveResult is one phase's measurements.
type serveResult struct {
	open, closed    []sample
	inServer        []float64     // closed loop: in-server latency, ms
	closedDur       time.Duration // length of the closed loop
	batches, served float64       // closed loop: micro-batches and requests
	compute         []float64     // traced closed loop: replica compute spans, ms
	closedFrom      time.Time
	counts          *countLedger // layer counters over the phase, per request
	before, after   counters
}

func runServe(o options, r *report) error {
	// A traced run keeps every request's trace, so the replicas'
	// compute spans of the whole traced phase can be read back.
	keep := 0
	if o.traced {
		keep = int(4000*o.seconds.Seconds()) + 4096
	}
	sys, err := setUp(r, "core.New + LoadDataset + 10 training iterations + serve.New (publish, 2 replicas)",
		func() (serveSystem, error) { return newServeSystem(o.seed, keep) },
		func(s serveSystem) error { return s.srv.Close() })
	if err != nil {
		return err
	}
	defer sys.srv.Close()
	p, err := newPool(servePool, serveMaxBatch, o.seed+1, sys.f.ClassifyBatch)
	if err != nil {
		return err
	}
	// Warm-up, untimed and unchecked: a short closed loop fills the
	// server's buffers and the replicas' caches.
	closedLoop(serveClients, 200*time.Millisecond, func(c, k int) error {
		_, err := sys.srv.Classify(context.Background(), p.images[(c+k)%servePool])
		return err
	})

	res := servePhase(sys.srv, p, o.phase(), r)
	if !o.traced {
		open, closed := latenciesMS(res.open), latenciesMS(res.closed)
		r.endToEnd("main_ms", median(open), "ms", "wall",
			fmt.Sprintf("serve_p50_ms: open loop at %d req/s, from each request's due time, %d requests", serveRate, len(open)))
		r.endToEnd("aux_ms", windowed(res.closed, res.closedFrom, res.closedDur, pct(99)), "ms", "wall",
			fmt.Sprintf("serve_saturated_p99_ms: closed loop, %d outstanding, %d requests, median over time windows", serveClients, len(closed)))
		r.endToEnd("rate_per_s", windowed(res.closed, res.closedFrom, res.closedDur, closedRate(serveClients, 1)), "1/s", "wall",
			fmt.Sprintf("serve_capacity_rps: closed-loop throughput, %d outstanding over mean latency, median over time windows", serveClients))
		serveLayers(r, res, r.info)
		return nil
	}
	tres := servePhase(sys.srv, p, o.phase(), r)
	tres.compute = computeSpans(sys.srv.SlowTraces(), tres.closedFrom)
	serveLayers(r, tres, r.layer)
	tres.counts.report(r)
	enclaveModeled(r, tres.before, tres.after, float64(tres.counts.ops), "request")
	// The server traces every request in both phases; the traced phase
	// differs only in having its traces read back.
	overhead(r, median(latenciesMS(res.closed)), median(latenciesMS(tres.closed)), "closed-loop request")
	return nil
}

// serveLayers records the serve workload's layer figures.
func serveLayers(r *report, s serveResult, add func(name string, v float64, unit, clock, note string)) {
	var late []float64
	for _, x := range s.open {
		late = append(late, ms(x.late))
	}
	add("serve.batch_size_mean", s.served/s.batches, "count", "-", "closed loop: requests per micro-batch")
	add("serve.in_server_p50_ms", median(s.inServer), "ms", "wall", "closed loop: enqueue to classification")
	add("serve.open_p99_ms", percentile(latenciesMS(s.open), 99), "ms", "wall", "open loop p99 from due time (not gated: noisy)")
	add("serve.gen_late_ms", percentile(late, 99), "ms", "wall", "open loop: p99 of how late the generator sent")
	if len(s.compute) > 0 {
		add("core.replica_batch_ms", median(s.compute), "ms", "wall",
			fmt.Sprintf("closed loop: Replica.ClassifyBatchCtx compute span, over %d requests", len(s.compute)))
	}
}

// computeSpans returns the replica compute span of every retained
// trace that started at or after from, in ms.
func computeSpans(traces []obs.TraceSnapshot, from time.Time) []float64 {
	var out []float64
	for _, t := range traces {
		if t.Start.Before(from) {
			continue
		}
		for _, s := range t.Spans {
			if s.Stage == "compute" {
				out = append(out, ms(s.Dur))
			}
		}
	}
	return out
}

// servePhase drives the open loop then the closed loop, checks every
// prediction against the pool's reference, and takes the layer
// counters around the phase.
func servePhase(srv *serve.Server, p pool, dur time.Duration, r *report) serveResult {
	var res serveResult
	regs := []*obs.Registry{obs.Default(), srv.Metrics()}
	c0 := snapshot(regs...)
	classify := func(i int) (serve.Prediction, error) {
		j := i % servePool
		pred, err := srv.Classify(context.Background(), p.images[j])
		if err == nil {
			err = samePredictions([]int{pred.Class}, p.want[j:j+1])
		}
		return pred, err
	}
	openDur := time.Duration(float64(dur) * serveOpenShare)
	res.open = openLoop(realPacer, serveRate, openDur, func(i int) error {
		_, err := classify(i)
		return err
	})
	c1 := snapshot(regs...)
	res.closedFrom = time.Now()
	inServer := make([][]float64, serveClients)
	res.closedDur = dur - openDur
	res.closed, _ = closedLoop(serveClients, res.closedDur, func(c, k int) error {
		pred, err := classify(c*servePool/serveClients + k)
		if err == nil {
			inServer[c] = append(inServer[c], ms(pred.Latency))
		}
		return err
	})
	c2 := snapshot(regs...)
	for _, x := range inServer {
		res.inServer = append(res.inServer, x...)
	}
	res.batches = c2.family("serve_batches_total") - c1.family("serve_batches_total")
	res.served = c2.family("serve_requests_total") - c1.family("serve_requests_total")
	r.samples(res.open)
	r.samples(res.closed)
	res.counts = newCountLedger()
	res.counts.add(counterDeltas(c0, c2), len(res.open)+len(res.closed))
	res.before, res.after = c0, c2
	return res
}
