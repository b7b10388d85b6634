package rs

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/model"
)

// snapshot is the serialized form of a Surface: the standardizer, the
// polynomial coefficients, and the target transform — everything Predict
// touches — gob-encoded behind a version field.
type snapshot struct {
	Version      int
	Mean, Std    []float64
	Beta         []float64
	Interactions bool
	YMean, YStd  float64
	Log          bool
	Dim          int
}

const snapshotVersion = 1

// Save writes the surface to w.
func (s *Surface) Save(w io.Writer) error {
	snap := snapshot{
		Version:      snapshotVersion,
		Mean:         s.std.Mean,
		Std:          s.std.Std,
		Beta:         s.beta,
		Interactions: s.interactions,
		YMean:        s.yMean,
		YStd:         s.yStd,
		Log:          s.log,
		Dim:          s.dim,
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("rs: saving surface: %w", err)
	}
	return nil
}

// Load reads a surface previously written by Save; predictions are
// bit-identical to the surface that was saved.
func Load(r io.Reader) (*Surface, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("rs: loading surface: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("rs: surface snapshot version %d, want 1..%d", snap.Version, snapshotVersion)
	}
	// Predict expands a Dim-wide vector into exactly numTerms(Dim) basis
	// terms, so a snapshot of any other shape could not answer it.
	if len(snap.Mean) != snap.Dim || len(snap.Std) != snap.Dim ||
		len(snap.Beta) != numTerms(snap.Dim, snap.Interactions) {
		return nil, fmt.Errorf("rs: malformed snapshot: dim %d, %d terms (want %d), %d/%d standardizer columns",
			snap.Dim, len(snap.Beta), numTerms(snap.Dim, snap.Interactions), len(snap.Mean), len(snap.Std))
	}
	return &Surface{
		std:          &model.Standardizer{Mean: snap.Mean, Std: snap.Std},
		beta:         snap.Beta,
		interactions: snap.Interactions,
		yMean:        snap.YMean,
		yStd:         snap.YStd,
		log:          snap.Log,
		dim:          snap.Dim,
	}, nil
}

// Backend adapts the package to the model.Backend contract with a simple
// versioned codec as its persistence capability.
type Backend struct{ Opt Options }

// Name implements model.Backend.
func (Backend) Name() string { return "rs" }

// Train implements model.Backend. The surface has no seed or tree
// budget, so it ignores every TrainOpts field.
func (b Backend) Train(ds *model.Dataset, opt model.TrainOpts) (model.Model, error) {
	return Train(ds, b.Opt)
}

// Save implements model.Backend.
func (Backend) Save(m model.Model, w io.Writer) error {
	s, ok := m.(*Surface)
	if !ok {
		return fmt.Errorf("rs: cannot save %T through the rs backend", m)
	}
	return s.Save(w)
}

// Load implements model.Backend.
func (Backend) Load(r io.Reader) (model.Model, error) { return Load(r) }
