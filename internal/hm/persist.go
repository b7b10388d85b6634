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

// snapshot is the serialized form of a Model.
//
// Version 2 added BinEdges and HasBins — the training Builder's histogram
// edges plus a flag that the trees' per-split bin codes are valid. Scoring
// and Resume need neither (the compiled form derives its code space from
// the trees' own thresholds); they are still written so the format stays
// the one every earlier reader understands. The schema stays backward
// compatible: gob decodes a version-1 stream into the same struct with
// the new fields zero, and Load then simply rebuilds the model without
// codes.
type snapshot struct {
	Version int
	Log     bool
	Order   int
	ValErr  float64
	Coefs   []float64
	Subs    []snapshotFO

	// BinEdges are the per-feature histogram bin edges of the training
	// Builder (version ≥ 2; nil in legacy streams).
	BinEdges [][]float64
	// HasBins records that every persisted tree node carries a valid Bin
	// code. Validity must be signaled here rather than per node: a
	// version-1 stream decodes every FlatNode.Bin as zero, which is
	// indistinguishable from a genuine bin 0.
	HasBins bool
}

type snapshotFO struct {
	Base  float64
	LR    float64
	Trees [][]tree.FlatNode
}

const snapshotVersion = 2

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	s := snapshot{
		Version:  snapshotVersion,
		Log:      m.log,
		Order:    m.Order,
		ValErr:   m.ValErr,
		Coefs:    m.coefs,
		BinEdges: m.edges,
		HasBins:  m.edges != nil && m.hasBinCodes(),
	}
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

// hasBinCodes reports whether every tree of the model carries bin codes.
func (m *Model) hasBinCodes() bool {
	for _, fo := range m.subs {
		for _, t := range fo.trees {
			if !t.HasBinCodes() {
				return false
			}
		}
	}
	return true
}

// Load reads a model previously written by Save, accepting any schema
// version up to the current one, and compiles it. Version-2 snapshots
// restore the bin edges and codes; version-1 snapshots reload without
// them, and both predict and resume identically. A snapshot the compiled
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
	withCodes := s.HasBins && len(s.BinEdges) > 0
	m := &Model{log: s.Log, Order: s.Order, ValErr: s.ValErr, coefs: s.Coefs}
	if withCodes {
		m.edges = s.BinEdges
	}
	for _, sf := range s.Subs {
		fo := &firstOrder{base: sf.Base, lr: sf.LR}
		for _, nodes := range sf.Trees {
			var t *tree.Tree
			var err error
			if withCodes {
				t, err = tree.FromFlatWithCodes(nodes)
			} else {
				t, err = tree.FromFlat(nodes)
			}
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
