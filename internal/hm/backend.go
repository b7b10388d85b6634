package hm

import (
	"fmt"
	"io"

	"repro/internal/model"
)

// Backend adapts the package to the model.Backend contract, with
// persistence (snapshot v2: the trees' thresholds) and warm-start via Resume
// as discovered capabilities. Opt holds every hyperparameter;
// model.TrainOpts overlays only the per-job knobs (seed, tree budget,
// metrics), so the daemon's per-job budgets reproduce exactly the
// hm.Options a direct Train call would use.
type Backend struct{ Opt Options }

// Name implements model.Backend.
func (Backend) Name() string { return "hm" }

// options merges the per-job knobs into the backend's own.
func (b Backend) options(opt model.TrainOpts) Options {
	eff := b.Opt
	if opt.Quick && b.Opt == (Options{}) {
		// The daemon's smoke-test budget (JobSpec.Quick).
		eff = QuickOptions()
	}
	if opt.Trees > 0 {
		eff.Trees = opt.Trees
	}
	if opt.Seed != 0 {
		eff.Seed = opt.Seed
	}
	if eff.Obs == nil {
		eff.Obs = opt.Obs
	}
	return eff
}

// Train implements model.Backend.
func (b Backend) Train(ds *model.Dataset, opt model.TrainOpts) (model.Model, error) {
	return Train(ds, b.options(opt))
}

// Save implements model.Backend.
func (b Backend) Save(m model.Model, w io.Writer) error {
	hmm, ok := m.(*Model)
	if !ok {
		return fmt.Errorf("hm: cannot save %T through the hm backend", m)
	}
	return hmm.Save(w)
}

// Load implements model.Backend.
func (Backend) Load(r io.Reader) (model.Model, error) { return Load(r) }

// Resume implements model.Resumer: it continues a persisted or in-memory
// HM model's boosting trajectory (and, if needed, its hierarchical
// recursion) with up to extra additional trees.
func (b Backend) Resume(m model.Model, ds *model.Dataset, opt model.TrainOpts, extra int) error {
	hmm, ok := m.(*Model)
	if !ok {
		return fmt.Errorf("hm: cannot resume %T through the hm backend", m)
	}
	return Resume(hmm, ds, b.options(opt), extra)
}
