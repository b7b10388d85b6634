package tree

import "fmt"

// FlatNode is the exported, serializable form of a tree node, used by the
// model-persistence layer (internal/hm stores trained models with
// encoding/gob so a model trained once can serve many searches — the
// paper's periodic-job economics).
type FlatNode struct {
	Feature   int32
	Threshold float64
	Left      int32
	Right     int32
	Value     float64
	Leaf      bool
	// Bin is the histogram bin whose upper edge equals Threshold, for
	// split nodes grown by a Builder. Snapshots older than the field
	// gob-decode it as zero — indistinguishable from a genuine bin 0 —
	// so validity is signaled at the snapshot level, not per node:
	// FromFlat ignores Bin and FromFlatWithCodes must only be used when
	// the enclosing snapshot recorded that codes are present.
	Bin uint8
}

// Flatten returns the tree's nodes in storage order, including the
// per-split bin codes when the tree carries them.
func (t *Tree) Flatten() []FlatNode {
	hasBins := len(t.bins) == len(t.feature)
	out := make([]FlatNode, len(t.feature))
	for i := range t.feature {
		if t.feature[i] < 0 {
			out[i] = FlatNode{Value: t.thresh[i], Leaf: true}
		} else {
			out[i] = FlatNode{
				Feature:   t.feature[i],
				Threshold: t.thresh[i],
				Left:      t.left[i],
				Right:     t.right[i],
			}
			if hasBins {
				out[i].Bin = t.bins[i]
			}
		}
	}
	return out
}

// FromFlat rebuilds a tree from its flattened form, discarding bin codes:
// the rebuilt tree predicts over float rows but cannot AccumulateBinned.
// Every split's children must sit at higher indices than the split
// itself, as Flatten emits them, so any walk from the root ends at a
// leaf.
// Split-gain metadata (feature importance) is not persisted.
func FromFlat(nodes []FlatNode) (*Tree, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("tree: empty node list")
	}
	t := &Tree{
		feature: make([]int32, len(nodes)),
		thresh:  make([]float64, len(nodes)),
		left:    make([]int32, len(nodes)),
		right:   make([]int32, len(nodes)),
	}
	for i, n := range nodes {
		if n.Leaf {
			t.feature[i] = leafMarker
			t.thresh[i] = n.Value
			t.leaves++
			continue
		}
		if int(n.Left) >= len(nodes) || int(n.Right) >= len(nodes) {
			return nil, fmt.Errorf("tree: node %d has child out of range", i)
		}
		// Grow and Flatten always place children after their parent. A
		// child at or before its parent (a self-loop or back-edge in a
		// corrupt snapshot) would send Predict round a cycle forever.
		if int(n.Left) <= i || int(n.Right) <= i {
			return nil, fmt.Errorf("tree: node %d has child %d/%d not after it", i, n.Left, n.Right)
		}
		if n.Feature < 0 {
			return nil, fmt.Errorf("tree: node %d has negative feature", i)
		}
		t.feature[i] = n.Feature
		t.thresh[i] = n.Threshold
		t.left[i] = n.Left
		t.right[i] = n.Right
	}
	return t, nil
}

// FromFlatWithCodes rebuilds a tree including its per-split bin codes, so
// the reloaded tree still supports AccumulateBinned over rows encoded
// against the edges its builder used (persisted alongside the trees by
// internal/hm's snapshot, and applied to new rows via BinWithEdges). Use
// only when the enclosing snapshot recorded that codes are valid: older
// snapshots decode every Bin field as zero, which FromFlat safely drops.
func FromFlatWithCodes(nodes []FlatNode) (*Tree, error) {
	t, err := FromFlat(nodes)
	if err != nil {
		return nil, err
	}
	t.bins = make([]uint8, len(nodes))
	for i, n := range nodes {
		if !n.Leaf {
			t.bins[i] = n.Bin
		}
	}
	return t, nil
}
