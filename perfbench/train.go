package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mnist"
	"plinius/internal/obs"
)

// The train workload: Algorithm 2 (batch from the encrypted data
// matrix in PM, train, mirror out every iteration) on a small model of
// the paper's MNIST CNN family.
const (
	trainBatch  = 32
	trainRows   = 2048 // rows of the encrypted data matrix
	trainWarmup = 5    // iterations before timing starts
)

func newTrainFramework(seed int64) (*core.Framework, error) {
	f, err := core.New(core.Config{
		ModelConfig: darknet.MNISTConfig(2, 8, trainBatch),
		Server:      profile(),
		PMBytes:     32 << 20,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	if err := f.LoadDataset(mnist.Synthetic(trainRows, seed)); err != nil {
		return nil, err
	}
	return f, nil
}

func runTrain(o options, r *report) error {
	f, err := setUp(r, "core.New + LoadDataset (2048 encrypted rows into PM)",
		func() (*core.Framework, error) { return newTrainFramework(o.seed) },
		func(*core.Framework) error { return nil })
	if err != nil {
		return err
	}
	var first float32
	err = f.Train(context.Background(), core.StopAt(trainWarmup), core.WithProgress(func(iter int, loss float32) {
		if iter == 1 {
			first = loss
		}
	}))
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	start := time.Now()
	its, last, err := trainPhase(f, o.phase(), r)
	if err != nil {
		return err
	}
	p50 := median(latenciesMS(its))
	if !o.traced {
		r.endToEnd("main_ms", p50, "ms", "wall+modeled",
			fmt.Sprintf("train iteration p50 over %d iterations", len(its)))
		r.endToEnd("aux_ms", windowed(its, start, o.phase(), pct(90)), "ms", "wall+modeled",
			"train iteration p90, median over time windows")
		r.endToEnd("rate_per_s", windowed(its, start, o.phase(), samplesPerSecond), "1/s", "wall+modeled",
			"train_samples_per_s, median over time windows")
	} else {
		tracedP50, tracedLast, err := trainTraced(f, o, r)
		if err != nil {
			return err
		}
		last = tracedLast
		overhead(r, p50, tracedP50, "train iteration")
	}
	r.info("iterations", float64(len(its)), "count", "-", "untraced iterations timed")

	// The model must survive a crash bit for bit, and training must
	// have learned something.
	want := params(f.Net)
	iter := f.Net.Iteration
	f.Crash()
	err = f.Recover(true)
	if err == nil {
		err = sameParams(want, f.Net)
	}
	if err == nil && f.Net.Iteration != iter {
		err = fmt.Errorf("%w: recovered iteration %d, trained %d", errWrong, f.Net.Iteration, iter)
	}
	r.op(err)
	r.op(lossFell(first, last))
	return nil
}

// trainPhase runs Framework.Train for dur and returns one sample per
// iteration, whose latency is the iteration's cost on both clocks, and
// the last loss. Each iteration is one operation.
func trainPhase(f *core.Framework, dur time.Duration, r *report) ([]sample, float32, error) {
	clk := frameworkClocks(f)
	var (
		its  []sample
		last float32
	)
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	t0, m0 := time.Now(), clk.modeled()
	err := f.Train(ctx, core.WithProgress(func(_ int, loss float32) {
		t1, m1 := time.Now(), clk.modeled()
		its = append(its, sample{latency: t1.Sub(t0) + m1 - m0, done: t1})
		t0, m0 = t1, m1
		last = loss
		r.op(nil)
	}))
	if !errors.Is(err, context.DeadlineExceeded) {
		r.op(err)
		return nil, 0, fmt.Errorf("train: %v", err)
	}
	if len(its) == 0 {
		return nil, 0, errors.New("train: no iteration completed")
	}
	return its, last, nil
}

// samplesPerSecond is the windowed training rate: samples trained per
// second of iteration cost on both clocks.
func samplesPerSecond(w []sample, _ time.Duration) float64 {
	var cost time.Duration
	for _, s := range w {
		cost += s.latency
	}
	return float64(len(w)*trainBatch) / cost.Seconds()
}

// trainTraced replays the training loop call by call — DataMatrix.Batch,
// Network.TrainBatch, Model.MirrorOut — inside one ecall, as
// Framework.Train runs it, recording a span around each call and the
// layer counters around each iteration. It returns the median
// iteration cost and the last loss.
func trainTraced(f *core.Framework, o options, r *report) (float64, float32, error) {
	clk := frameworkClocks(f)
	tr := newTracer(clk)
	ledger := newCountLedger()
	rng := rand.New(rand.NewSource(o.seed + 1))
	var (
		last               float32
		pmModel, enclModel time.Duration
	)
	reg := obs.Default()
	c0 := snapshot(reg)
	deadline := time.Now().Add(o.phase())
	err := f.Enclave.Ecall(func() error {
		for time.Now().Before(deadline) {
			before := snapshot(reg)
			pm0, en0 := f.PM.Clock().Modeled(), f.Enclave.Clock().Modeled()
			err := tr.do("iteration", func() error {
				var x, y []float32
				err := tr.do("mirror.DataMatrix.Batch", func() (err error) {
					x, y, err = f.Data.Batch(rng, trainBatch)
					return err
				})
				if err != nil {
					return err
				}
				f.Enclave.Touch(4 * (len(x) + len(y)))
				err = tr.do("darknet.Network.TrainBatch", func() (err error) {
					last, err = f.Net.TrainBatch(x, y, trainBatch)
					return err
				})
				if err != nil {
					return err
				}
				return tr.do("mirror.Model.MirrorOut", func() error { return f.Mirror.MirrorOut(f.Net) })
			})
			r.op(err)
			if err != nil {
				return err
			}
			pmModel += f.PM.Clock().Modeled() - pm0
			enclModel += f.Enclave.Clock().Modeled() - en0
			ledger.add(counterDeltas(before, snapshot(reg)), 1)
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("traced training: %w", err)
	}
	self := tr.selfTimes()
	n := float64(len(self["iteration"]))
	r.layer("darknet.train_batch_ms", median(self["darknet.Network.TrainBatch"]), "ms", "wall+modeled", "self time of Network.TrainBatch")
	r.layer("mirror.data_batch_ms", median(self["mirror.DataMatrix.Batch"]), "ms", "wall+modeled", "self time of DataMatrix.Batch")
	r.layer("mirror.out_ms", median(self["mirror.Model.MirrorOut"]), "ms", "wall+modeled", "self time of Model.MirrorOut")
	r.layer("pm.modeled_ms", ms(pmModel)/n, "ms/op", "modeled", "PM clock per iteration")
	r.layer("enclave.modeled_ms", ms(enclModel)/n, "ms/op", "modeled", "enclave clock per iteration")
	aesRates(r, c0, snapshot(obs.Default()))
	ledger.report(r)
	tr.summary(r)
	return median(tr.costs("iteration")), last, nil
}
