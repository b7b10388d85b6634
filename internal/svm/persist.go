package svm

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/model"
)

// snapshot is the serialized form of an SVR: the standardizer, the
// support vectors and their dual coefficients, and the kernel/target
// parameters — everything Predict touches — behind a version field.
type snapshot struct {
	Version     int
	Mean, Std   []float64
	SV          [][]float64
	Alpha       []float64
	Bias        float64
	Gamma       float64
	YMean, YStd float64
	Log         bool
}

const snapshotVersion = 1

// Save writes the regressor to w.
func (s *SVR) Save(w io.Writer) error {
	snap := snapshot{
		Version: snapshotVersion,
		Mean:    s.std.Mean,
		Std:     s.std.Std,
		SV:      s.sv,
		Alpha:   s.alpha,
		Bias:    s.bias,
		Gamma:   s.gamma,
		YMean:   s.yMean,
		YStd:    s.yStd,
		Log:     s.log,
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("svm: saving model: %w", err)
	}
	return nil
}

// Load reads a regressor previously written by Save; predictions are
// bit-identical to the regressor that was saved.
func Load(r io.Reader) (*SVR, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("svm: loading model: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("svm: model snapshot version %d, want 1..%d", snap.Version, snapshotVersion)
	}
	if len(snap.SV) != len(snap.Alpha) || len(snap.Mean) != len(snap.Std) {
		return nil, fmt.Errorf("svm: malformed snapshot: %d support vectors, %d coefficients",
			len(snap.SV), len(snap.Alpha))
	}
	for i, sv := range snap.SV {
		if len(sv) != len(snap.Mean) {
			return nil, fmt.Errorf("svm: malformed snapshot: support vector %d has %d entries, want %d",
				i, len(sv), len(snap.Mean))
		}
	}
	return &SVR{
		std:   &model.Standardizer{Mean: snap.Mean, Std: snap.Std},
		sv:    snap.SV,
		alpha: snap.Alpha,
		bias:  snap.Bias,
		gamma: snap.Gamma,
		yMean: snap.YMean,
		yStd:  snap.YStd,
		log:   snap.Log,
	}, nil
}

// Backend adapts the package to the model.Backend contract with a simple
// versioned codec as its persistence capability.
type Backend struct{ Opt Options }

// Name implements model.Backend.
func (Backend) Name() string { return "svm" }

// options merges the per-job knobs into the backend's own.
func (b Backend) options(opt model.TrainOpts) Options {
	eff := b.Opt
	if opt.Quick && eff.Epochs == 0 {
		eff.Epochs = 10
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

// Save implements model.Saver.
func (Backend) Save(m model.Model, w io.Writer) error {
	s, ok := m.(*SVR)
	if !ok {
		return fmt.Errorf("svm: cannot save %T through the svm backend", m)
	}
	return s.Save(w)
}

// Load implements model.Loader.
func (Backend) Load(r io.Reader) (model.Model, error) { return Load(r) }
