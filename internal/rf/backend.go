package rf

import (
	"fmt"
	"io"

	"repro/internal/model"
)

// Backend adapts the package to the model.Backend contract with
// tree-based persistence as a discovered capability. The forest is not
// incrementally trainable, so there is no Resumer.
type Backend struct{ Opt Options }

// Name implements model.Backend.
func (Backend) Name() string { return "rf" }

// options merges the per-job knobs into the backend's own.
func (b Backend) options(opt model.TrainOpts) Options {
	eff := b.Opt
	if opt.Quick && eff.Trees == 0 {
		eff.Trees = 60
	}
	if opt.Trees > 0 {
		eff.Trees = opt.Trees
	}
	if opt.Seed != 0 {
		eff.Seed = opt.Seed
	}
	return eff
}

// Train implements model.Backend.
func (b Backend) Train(ds *model.Dataset, opt model.TrainOpts) (model.Model, error) {
	return Train(ds, b.options(opt))
}

// Save implements model.Backend.
func (Backend) Save(m model.Model, w io.Writer) error {
	f, ok := m.(*Forest)
	if !ok {
		return fmt.Errorf("rf: cannot save %T through the rf backend", m)
	}
	return f.Save(w)
}

// Load implements model.Backend.
func (Backend) Load(r io.Reader) (model.Model, error) { return Load(r) }
