package ann

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/model"
)

// snapshot is the serialized form of a Network: weights, biases, and the
// feature/target transforms. Momentum buffers are training state and are
// not persisted — a loaded network predicts bit-identically but is not
// resumable (the backend accordingly implements Saver/Loader, not
// Resumer).
type snapshot struct {
	Version     int
	Layers      []snapshotLayer
	Mean, Std   []float64
	YMean, YStd float64
	Log         bool
}

type snapshotLayer struct {
	W      [][]float64
	B      []float64
	Linear bool
}

const snapshotVersion = 1

// Save writes the network to w.
func (n *Network) Save(w io.Writer) error {
	snap := snapshot{
		Version: snapshotVersion,
		Mean:    n.std.Mean,
		Std:     n.std.Std,
		YMean:   n.yMean,
		YStd:    n.yStd,
		Log:     n.log,
	}
	for _, l := range n.layers {
		snap.Layers = append(snap.Layers, snapshotLayer{W: l.w, B: l.b, Linear: l.linear})
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("ann: saving network: %w", err)
	}
	return nil
}

// Load reads a network previously written by Save; predictions are
// bit-identical to the network that was saved.
func Load(r io.Reader) (*Network, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("ann: loading network: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("ann: network snapshot version %d, want 1..%d", snap.Version, snapshotVersion)
	}
	if len(snap.Layers) == 0 || len(snap.Mean) != len(snap.Std) {
		return nil, fmt.Errorf("ann: malformed snapshot: %d layers, %d/%d standardizer columns",
			len(snap.Layers), len(snap.Mean), len(snap.Std))
	}
	n := &Network{
		std:   &model.Standardizer{Mean: snap.Mean, Std: snap.Std},
		yMean: snap.YMean,
		yStd:  snap.YStd,
		log:   snap.Log,
	}
	// Predict feeds each layer the previous one's outputs (the
	// standardized features first) and reads one output.
	width := len(snap.Mean)
	for i, sl := range snap.Layers {
		if len(sl.W) != len(sl.B) {
			return nil, fmt.Errorf("ann: malformed snapshot: %d weight rows, %d biases", len(sl.W), len(sl.B))
		}
		for _, row := range sl.W {
			if len(row) != width {
				return nil, fmt.Errorf("ann: malformed snapshot: layer %d has a %d-wide weight row, want %d",
					i, len(row), width)
			}
		}
		width = len(sl.W)
		n.layers = append(n.layers, &layer{w: sl.W, b: sl.B, linear: sl.Linear})
	}
	if width != 1 {
		return nil, fmt.Errorf("ann: malformed snapshot: %d outputs, want 1", width)
	}
	return n, nil
}

// Backend adapts the package to the model.Backend contract with a simple
// versioned codec as its persistence capability.
type Backend struct{ Opt Options }

// Name implements model.Backend.
func (Backend) Name() string { return "ann" }

// options merges the per-job knobs into the backend's own.
func (b Backend) options(opt model.TrainOpts) Options {
	eff := b.Opt
	if opt.Quick && eff.Epochs == 0 {
		eff.Epochs = 120
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
	n, ok := m.(*Network)
	if !ok {
		return fmt.Errorf("ann: cannot save %T through the ann backend", m)
	}
	return n.Save(w)
}

// Load implements model.Loader.
func (Backend) Load(r io.Reader) (model.Model, error) { return Load(r) }
