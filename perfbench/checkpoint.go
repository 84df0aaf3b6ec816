package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"plinius/internal/core"
	"plinius/internal/darknet"
	"plinius/internal/mirror"
	"plinius/internal/obs"
	"plinius/internal/romulus"
)

// The checkpoint workload: a repeated cycle of MirrorSave, Crash and
// Recover(true) on a model below the paper's 78 MB EPC knee, with the
// SSD checkpoint baseline (and a bare MirrorRestore) beside each cycle.
// There is no training compute: the model is perturbed untimed before
// every save, so each recovery must bring back new values.
const (
	ckptModelBytes = 44 << 20
	ckptFile       = "perfbench.ckpt"
)

// Paper's Fig. 7 speedups of PM mirroring over SSD checkpointing.
const (
	paperSaveSpeedup    = 3.2
	paperRestoreSpeedup = 3.7
)

func newCheckpointFramework(seed int64) (*core.Framework, error) {
	cfg, err := core.SyntheticModelConfig(ckptModelBytes)
	if err != nil {
		return nil, err
	}
	f, err := core.New(core.Config{
		ModelConfig: cfg,
		Server:      profile(),
		PMBytes:     112 << 20,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	// The first save allocates the mirror in PM.
	if _, err := f.MirrorSave(); err != nil {
		return nil, err
	}
	return f, nil
}

// perturb moves every parameter of net to a new value derived from
// cycle, and advances the iteration counter, so a stale or partial
// restore cannot pass the bit-identity check.
func perturb(net *darknet.Network, cycle int) {
	delta := float32(cycle%7+1) * 1e-3
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			for j := range p {
				p[j] = p[j]*0.5 + delta
			}
		}
	}
	net.Iteration++
}

// ckptCosts are one phase's per-operation costs in ms, on both clocks.
type ckptCosts struct {
	save, recover, cycle, restore, ssdSave, ssdRestore []float64
}

func runCheckpoint(o options, r *report) error {
	f, err := setUp(r, "core.New (44 MB model, attestation, Romulus) + first MirrorSave",
		func() (*core.Framework, error) { return newCheckpointFramework(o.seed) },
		func(*core.Framework) error { return nil })
	if err != nil {
		return err
	}
	want := params(f.Net)
	r.info("model_bytes", float64(f.Net.ParamBytes()), "B", "-", "parameter bytes saved and restored per operation")

	c, err := checkpointPhase(f, o, r, want, nil)
	if err != nil {
		return err
	}
	if !o.traced {
		r.endToEnd("main_ms", median(c.recover), "ms", "wall+modeled",
			fmt.Sprintf("recover_p50_ms: Framework.Recover(true) over %d cycles", len(c.recover)))
		r.endToEnd("aux_ms", median(c.save), "ms", "wall+modeled", "save_p50_ms: Framework.MirrorSave")
		r.endToEnd("rate_per_s", 1000/median(c.cycle), "1/s", "wall+modeled",
			"MirrorSave + Crash + Recover cycles per second")
		fig7(r, c, r.info)
		return nil
	}
	tr := newTracer(frameworkClocks(f))
	tc, err := checkpointPhase(f, o, r, want, tr)
	if err != nil {
		return err
	}
	fig7(r, tc, r.layer)
	self := tr.selfTimes()
	r.layer("romulus.open_ms", median(self["romulus.Open"]), "ms", "wall+modeled", "self time of romulus.Open on the crashed PM")
	r.layer("darknet.build_ms", median(self["darknet.ParseConfig"]), "ms", "wall+modeled", "self time of darknet.ParseConfig (random init)")
	r.layer("mirror.open_model_ms", median(self["mirror.OpenModel"]), "ms", "wall+modeled", "self time of mirror.OpenModel")
	r.layer("mirror.in_ms", median(self["mirror.Model.MirrorIn"]), "ms", "wall+modeled", "self time of Model.MirrorIn")
	r.layer("mirror.out_ms", median(self["core.Framework.MirrorSave"]), "ms", "wall+modeled", "self time of Framework.MirrorSave, one Model.MirrorOut")
	// What Recover spends beyond the four calls: per cycle, its cost
	// minus that cycle's four spans. A cycle whose calls failed part-way
	// has fewer spans; pairing stops there.
	calls := []string{"romulus.Open", "darknet.ParseConfig", "mirror.OpenModel", "mirror.Model.MirrorIn"}
	var rest []float64
	for i, rec := range tc.recover {
		for _, name := range calls {
			if i >= len(self[name]) {
				rec = math.NaN()
				break
			}
			rec -= self[name][i]
		}
		if math.IsNaN(rec) {
			break
		}
		rest = append(rest, rec)
	}
	r.layer("core.recover_self_ms", median(rest), "ms", "wall+modeled",
		"per cycle, Framework.Recover minus the four calls above, p50")
	tr.summary(r)
	overhead(r, median(c.cycle), median(tc.cycle), "save+crash+recover cycle")
	return nil
}

// fig7 records the paper's Fig. 7 ratios, each with its base: SSD
// save over mirror save, SSD restore over MirrorRestore, and SSD
// restore over a full Recover.
func fig7(r *report, c ckptCosts, add func(name string, v float64, unit, clock, note string)) {
	save, restore, rec := median(c.save), median(c.restore), median(c.recover)
	ssdSave, ssdRestore := median(c.ssdSave), median(c.ssdRestore)
	add("storage.ssd_save_ms", ssdSave, "ms", "wall+modeled", "Framework.SSDSave p50 (baseline)")
	add("storage.ssd_restore_ms", ssdRestore, "ms", "wall+modeled", "Framework.SSDRestore p50 (baseline)")
	add("fig7.mirror_save_ms", save, "ms", "wall+modeled", "Framework.MirrorSave p50")
	add("fig7.mirror_restore_ms", restore, "ms", "wall+modeled", "Framework.MirrorRestore p50")
	add("fig7.recover_ms", rec, "ms", "wall+modeled", "Framework.Recover(true) p50")
	add("fig7.save_speedup", ssdSave/save, "x", "wall+modeled",
		fmt.Sprintf("SSD save %.4g ms / mirror save %.4g ms (paper: %.1fx)", ssdSave, save, paperSaveSpeedup))
	add("fig7.restore_speedup", ssdRestore/restore, "x", "wall+modeled",
		fmt.Sprintf("SSD restore %.4g ms / MirrorRestore %.4g ms (paper: %.1fx)", ssdRestore, restore, paperRestoreSpeedup))
	add("fig7.recover_speedup", ssdRestore/rec, "x", "wall+modeled",
		fmt.Sprintf("SSD restore %.4g ms / Recover %.4g ms (paper: %.1fx)", ssdRestore, rec, paperRestoreSpeedup))
}

// checkpointPhase runs cycles for the phase's time: perturb, save,
// crash, recover, then the bare mirror restore and the SSD baseline
// save and restore. Every recovery and restore is checked bit for bit
// against the saved parameters. With a tracer, each cycle also opens
// the crashed PM call by call before Recover, and the layer counters
// are taken around every cycle.
func checkpointPhase(f *core.Framework, o options, r *report, want [][]float32, tr *tracer) (ckptCosts, error) {
	clk := frameworkClocks(f)
	var (
		c      ckptCosts
		ledger = newCountLedger()
		reg    = obs.Default()
		pmMod  time.Duration
		enMod  time.Duration
	)
	c0 := snapshot(reg)
	deadline := time.Now().Add(o.phase())
	for cycle := 0; len(c.cycle) == 0 || time.Now().Before(deadline); cycle++ {
		perturb(f.Net, cycle)
		copyParams(want, f.Net)
		before := snapshot(reg)
		pm0, en0 := f.PM.Clock().Modeled(), f.Enclave.Clock().Modeled()

		save, err := clk.timed(func() error {
			return tr.do("core.Framework.MirrorSave", func() error { _, err := f.MirrorSave(); return err })
		})
		r.op(err)
		if err != nil {
			return c, fmt.Errorf("mirror save: %w", err)
		}
		crash, _ := clk.timed(func() error { f.Crash(); return nil })
		if tr != nil {
			net, err := recoverByCalls(f, o.seed, tr)
			r.op(firstErr(err, sameParams(want, net)))
		}
		rec, err := clk.timed(func() error {
			return tr.do("core.Framework.Recover", func() error { return f.Recover(true) })
		})
		if err != nil {
			r.op(err)
			return c, fmt.Errorf("recover: %w", err)
		}
		r.op(sameParams(want, f.Net))
		if tr != nil {
			pmMod += f.PM.Clock().Modeled() - pm0
			enMod += f.Enclave.Clock().Modeled() - en0
			ledger.add(counterDeltas(before, snapshot(reg)), 1)
		}
		c.save = append(c.save, ms(save))
		c.recover = append(c.recover, ms(rec))
		c.cycle = append(c.cycle, ms(save+crash+rec))

		restore, err := clk.timed(func() error { _, err := f.MirrorRestore(); return err })
		r.op(firstErr(err, sameParams(want, f.Net)))
		ssdSave, err := clk.timed(func() error { _, err := f.SSDSave(ckptFile); return err })
		r.op(err)
		ssdRestore, err := clk.timed(func() error { _, err := f.SSDRestore(ckptFile); return err })
		r.op(firstErr(err, sameParams(want, f.Net)))
		c.restore = append(c.restore, ms(restore))
		c.ssdSave = append(c.ssdSave, ms(ssdSave))
		c.ssdRestore = append(c.ssdRestore, ms(ssdRestore))
	}
	if tr == nil {
		r.info("cycles", float64(len(c.cycle)), "count", "-", "untraced save+crash+recover cycles timed")
	} else {
		n := float64(len(c.cycle))
		r.layer("pm.modeled_ms", ms(pmMod)/n, "ms/op", "modeled", "PM clock per save+crash+recover cycle")
		r.layer("enclave.modeled_ms", ms(enMod)/n, "ms/op", "modeled", "enclave clock per save+crash+recover cycle")
		aesRates(r, c0, snapshot(reg))
		ledger.report(r)
	}
	return c, nil
}

// recoverByCalls opens the crashed PM the way Framework.Recover does,
// one layer call at a time with a span around each — romulus.Open,
// darknet.ParseConfig, mirror.OpenModel, MirrorIn — and returns the
// model it rebuilds. It leaves the framework crashed, for Recover to
// bring back.
func recoverByCalls(f *core.Framework, seed int64, tr *tracer) (*darknet.Network, error) {
	env := romulus.NativeEnv()
	if profile().Enclave.HardwareSGX {
		env = romulus.SGXEnv()
	}
	var net *darknet.Network
	err := tr.do("recover-by-calls", func() error {
		var (
			rom *romulus.Romulus
			m   *mirror.Model
		)
		err := tr.do("romulus.Open", func() (err error) {
			rom, err = romulus.Open(f.PM, romulus.WithEnv(env))
			return err
		})
		if err != nil {
			return err
		}
		err = tr.do("darknet.ParseConfig", func() (err error) {
			net, err = darknet.ParseConfig(strings.NewReader(f.ModelConfigText()), rand.New(rand.NewSource(seed)))
			return err
		})
		if err != nil {
			return err
		}
		err = tr.do("mirror.OpenModel", func() (err error) {
			m, err = mirror.OpenModel(rom, f.Engine, mirror.WithEnclave(f.Enclave))
			return err
		})
		if err != nil {
			return err
		}
		return tr.do("mirror.Model.MirrorIn", func() error { _, err := m.MirrorIn(net); return err })
	})
	return net, err
}
