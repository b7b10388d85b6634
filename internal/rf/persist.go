package rf

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/tree"
)

// Forest persistence mirrors internal/hm's snapshot approach: the trees
// flatten through the shared tree.FlatNode form (thresholds and leaves),
// gob-encoded behind a version field so the schema can grow without
// breaking old streams. Snapshots written before trees stored thresholds
// alone also carry a HasBins flag and per-node bin codes; gob skips them
// on decode.

// snapshot is the serialized form of a Forest.
type snapshot struct {
	Version int
	Log     bool
	Trees   [][]tree.FlatNode
}

const snapshotVersion = 1

// Save writes the forest to w.
func (f *Forest) Save(w io.Writer) error {
	s := snapshot{Version: snapshotVersion, Log: f.log, Trees: make([][]tree.FlatNode, len(f.trees))}
	for i, t := range f.trees {
		s.Trees[i] = t.Flatten()
	}
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("rf: saving forest: %w", err)
	}
	return nil
}

// Load reads a forest previously written by Save; prediction is
// bit-identical to the forest that was saved. A split on a feature index
// of tree.MaxFeatures or more is rejected with an error, so a corrupt
// stream cannot make a caller size its feature vectors without bound.
func Load(r io.Reader) (*Forest, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("rf: loading forest: %w", err)
	}
	if s.Version < 1 || s.Version > snapshotVersion {
		return nil, fmt.Errorf("rf: forest snapshot version %d, want 1..%d", s.Version, snapshotVersion)
	}
	if len(s.Trees) == 0 {
		return nil, fmt.Errorf("rf: malformed snapshot: no trees")
	}
	f := &Forest{log: s.Log}
	for _, nodes := range s.Trees {
		t, err := tree.FromFlat(nodes)
		if err != nil {
			return nil, fmt.Errorf("rf: %w", err)
		}
		f.trees = append(f.trees, t)
	}
	return f, nil
}
