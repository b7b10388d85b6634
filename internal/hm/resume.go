package hm

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/model"
	"repro/internal/tree"
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
// whether m was just trained or went through Save/Load first. A model
// with its binned form
// intact (trained in-process, or reloaded from a version-2 snapshot that
// persisted the builder's bin edges and the trees' bin codes) replays its
// existing trees over freshly encoded rows with tree.AccumulateBinned;
// models from legacy (v1) snapshots, or whose edges no longer match the
// data, replay through the float walk — equivalent by AccumulateBinned's
// bit-identity contract, just slower.
//
// The fit space (log or raw target) is the model's own; opt.NoLogTarget
// is overridden to match so a resumed log-space model is never fed raw
// residuals.
func Resume(m *Model, ds *model.Dataset, opt Options, extra int) error {
	opt = opt.withDefaults()
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

	fo := m.subs[len(m.subs)-1]
	pred := make([]float64, trainDS.Len())
	for i := range pred {
		pred[i] = fo.base
	}
	valPred := make([]float64, valDS.Len())
	for i := range valPred {
		valPred[i] = fo.base
	}
	// Replay the sub-model's existing trees to recover the predictions
	// its last boosting round left off at, preferring the binned path
	// when the model still knows the edges its codes refer to.
	d := len(trainDS.Features[0])
	if len(m.edges) == d && m.hasBinCodes() {
		trainOld := tree.BinWithEdges(m.edges, trainDS.Features)
		valOld := tree.BinWithEdges(m.edges, valDS.Features)
		for _, t := range fo.trees {
			t.AccumulateBinned(trainOld, fo.lr, pred)
			t.AccumulateBinned(valOld, fo.lr, valPred)
		}
		opt.Obs.Counter("hm.resume.binned.trees").Add(int64(len(fo.trees)))
	} else {
		for _, t := range fo.trees {
			t.AccumulateBatch(trainDS.Features, fo.lr, pred)
			t.AccumulateBatch(valDS.Features, fo.lr, valPred)
		}
	}

	tr.boost(fo, pred, valPred, extra, rand.New(rand.NewSource(rng.Int63())), nil)
	m.coefs = tr.fitCoefs(m.subs)
	m.ValErr = tr.valError(m.subs, m.coefs)

	// Algorithm 1's outer loop, resumed: while the blend still misses the
	// target and the order budget allows, grow another converged
	// first-order model and refit the blend. Each appended sub-model draws
	// its randomness from the same rng stream, so the whole continuation
	// is a pure function of (m, ds, opt.Seed, extra).
	appended := 0
	for 1-m.ValErr < opt.TargetAccuracy && len(m.subs) < opt.MaxOrder {
		sub := tr.firstOrderProcedure(rand.New(rand.NewSource(rng.Int63())), nil)
		m.subs = append(m.subs, sub)
		m.coefs = tr.fitCoefs(m.subs)
		m.ValErr = tr.valError(m.subs, m.coefs)
		appended++
	}
	m.Order = len(m.subs)

	// The new trees' bin codes refer to the resume builder's edges. If
	// those differ from the edges the old trees were coded against, no
	// single edge set describes the whole model any more: drop the binned
	// form (a later Save then persists without codes, and a later Resume
	// replays through the float path). Resuming over the same dataset and
	// split — the common trajectory-continuation case — rebins
	// identically, so the binned form survives.
	if m.edges != nil {
		if newEdges := tr.builder.Edges(); edgesEqual(m.edges, newEdges) {
			m.edges = newEdges
		} else {
			m.edges = nil
		}
	}

	opt.Obs.Counter("hm.resumes").Inc()
	opt.Obs.Counter("hm.resume.appended").Add(int64(appended))
	opt.Obs.Counter("hm.trees").Add(int64(m.NumTrees()))
	opt.Obs.Histogram("hm.resume.sec", nil).Observe(time.Since(start).Seconds())
	return nil
}

// edgesEqual reports whether two per-feature edge sets are identical.
func edgesEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a {
		if len(a[f]) != len(b[f]) {
			return false
		}
		for k, v := range a[f] {
			if b[f][k] != v {
				return false
			}
		}
	}
	return true
}
