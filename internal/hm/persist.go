package hm

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/tree"
)

// The paper's usage scenario amortizes one expensive collection over many
// cheap searches (§5.7): persisting the trained model makes the searches
// separable in time and process. Save/Load use encoding/gob over an
// exported snapshot of the model.

// snapshot is the serialized form of a Model: the blend and the trees'
// thresholds and leaves, all that scoring and Resume read. Version-2
// snapshots from before trees stored thresholds alone also carry the
// training Builder's bin edges (BinEdges), per-node bin codes and a flag
// that those are valid (HasBins); gob skips them on decode. A version-1
// stream has this struct's fields.
type snapshot struct {
	Version int
	Log     bool
	Order   int
	ValErr  float64
	Coefs   []float64
	Subs    []snapshotFO
}

type snapshotFO struct {
	Base  float64
	LR    float64
	Trees [][]tree.FlatNode
}

const snapshotVersion = 2

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	s := snapshot{Version: snapshotVersion, Log: m.log, Order: m.Order, ValErr: m.ValErr, Coefs: m.coefs}
	for _, fo := range m.subs {
		sf := snapshotFO{Base: fo.base, LR: fo.lr, Trees: make([][]tree.FlatNode, len(fo.trees))}
		for i, t := range fo.trees {
			sf.Trees[i] = t.Flatten()
		}
		s.Subs = append(s.Subs, sf)
	}
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("hm: saving model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save, accepting any schema
// version up to the current one, and compiles it. A snapshot the compiled
// kernel cannot score — a tree with more than five splits, a feature with
// 32,768 or more distinct thresholds, a split on a feature index of 2^16
// or more — is rejected with an error. Feature-importance metadata is not
// persisted; everything needed for prediction is.
func Load(r io.Reader) (*Model, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("hm: loading model: %w", err)
	}
	if s.Version < 1 || s.Version > snapshotVersion {
		return nil, fmt.Errorf("hm: model snapshot version %d, want 1..%d", s.Version, snapshotVersion)
	}
	if len(s.Subs) == 0 || len(s.Coefs) != len(s.Subs) {
		return nil, fmt.Errorf("hm: malformed snapshot: %d sub-models, %d coefficients", len(s.Subs), len(s.Coefs))
	}
	m := &Model{log: s.Log, Order: s.Order, ValErr: s.ValErr, coefs: s.Coefs}
	for _, sf := range s.Subs {
		fo := &firstOrder{base: sf.Base, lr: sf.LR}
		for _, nodes := range sf.Trees {
			t, err := tree.FromFlat(nodes)
			if err != nil {
				return nil, fmt.Errorf("hm: %w", err)
			}
			fo.trees = append(fo.trees, t)
		}
		m.subs = append(m.subs, fo)
	}
	ens, err := compile(m.subs)
	if err != nil {
		return nil, err
	}
	m.ens = ens
	return m, nil
}
