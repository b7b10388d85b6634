package hm

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/model"
)

// Resume continues the boosting trajectory of m's last first-order
// sub-model: up to extra additional trees are grown over ds on the
// residuals the sub-model currently leaves, with the same bootstrap
// sampling and early stopping as Train, after which the blend
// coefficients and ValErr are refit on the fresh validation split. If the
// refit blend still misses opt.TargetAccuracy, Resume then continues
// Algorithm 1's hierarchical recursion where Train left off: additional
// converged first-order models are grown (full opt.Trees budget each,
// fresh randomness) and blended in until the target is met or the order
// reaches opt.MaxOrder, with m.Order tracking the result — so a registry
// warm-start keeps the hierarchy growing instead of only stretching the
// last sub-model. The train/validation split and all randomness derive
// from opt.Seed, so Resume is deterministic — and it is bit-identical
// whether m was just trained or went through Save/Load first. The
// sub-model's existing trees replay over the new rows through the model's
// compiled form, whose code space is the trees' own thresholds, so one
// replay path serves in-process models and v1 and v2 snapshots alike.
// If the grown model cannot be compiled (a feature past maxThresholds
// distinct thresholds after many resumes on new data), Resume returns the
// error and leaves m as it was.
//
// The fit space (log or raw target) is the model's own; opt.NoLogTarget
// is overridden to match so a resumed log-space model is never fed raw
// residuals.
func Resume(m *Model, ds *model.Dataset, opt Options, extra int) error {
	opt = opt.withDefaults()
	if err := opt.check(); err != nil {
		return err
	}
	if len(m.subs) == 0 {
		return fmt.Errorf("hm: resume on a model with no sub-models")
	}
	if extra <= 0 {
		return fmt.Errorf("hm: resume budget %d trees", extra)
	}
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("hm: %w", err)
	}
	if ds.Len() < 10 {
		return fmt.Errorf("hm: %d samples is too few", ds.Len())
	}
	opt.NoLogTarget = !m.log
	start := time.Now()
	rng := rand.New(rand.NewSource(opt.Seed))
	trainDS, valDS := ds.Split(1-opt.ValFrac, rng)
	tr := newTrainer(trainDS, valDS, opt)

	// Replay the sub-model's existing trees to recover the predictions
	// its last boosting round left off at.
	last := len(m.subs) - 1
	fo := m.subs[last]
	pred := make([]float64, trainDS.Len())
	valPred := make([]float64, valDS.Len())
	trainB := m.ens.space.encode(trainDS.Features)
	m.ens.predictSub(&trainB, last, pred)
	valB := m.ens.space.encode(valDS.Features)
	m.ens.predictSub(&valB, last, valPred)
	opt.Obs.Counter("hm.resume.replayed.trees").Add(int64(len(fo.trees)))

	saved, nTrees := *m, len(fo.trees)
	restore := func(err error) error {
		fo.trees = fo.trees[:nTrees]
		*m = saved
		return err
	}
	tr.boost(fo, pred, valPred, extra, rand.New(rand.NewSource(rng.Int63())), nil)
	if err := tr.blend(m); err != nil {
		return restore(err)
	}

	// Algorithm 1's outer loop, resumed: while the blend still misses the
	// target and the order budget allows, grow another converged
	// first-order model and refit the blend. Each appended sub-model draws
	// its randomness from the same rng stream, so the whole continuation
	// is a pure function of (m, ds, opt.Seed, extra).
	appended := 0
	for 1-m.ValErr < opt.TargetAccuracy && len(m.subs) < opt.MaxOrder {
		sub := tr.firstOrderProcedure(rand.New(rand.NewSource(rng.Int63())), nil)
		m.subs = append(m.subs, sub)
		if err := tr.blend(m); err != nil {
			return restore(err)
		}
		appended++
	}
	m.Order = len(m.subs)

	opt.Obs.Counter("hm.resumes").Inc()
	opt.Obs.Counter("hm.resume.appended").Add(int64(appended))
	opt.Obs.Counter("hm.trees").Add(int64(m.NumTrees()))
	opt.Obs.Histogram("hm.resume.sec", nil).Observe(time.Since(start).Seconds())
	return nil
}
