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
	// Snapshots written before thresholds were all a tree stored also
	// carry a per-node Bin field; gob skips it on decode.
}

// Flatten returns the tree's nodes in storage order.
func (t *Tree) Flatten() []FlatNode {
	out := make([]FlatNode, len(t.feature))
	for i := range out {
		out[i] = t.Node(i)
	}
	return out
}

// Node returns node i (0 is the root) in its flattened form, without
// copying the rest of the tree.
func (t *Tree) Node(i int) FlatNode {
	if t.feature[i] < 0 {
		return FlatNode{Value: t.thresh[i], Leaf: true}
	}
	return FlatNode{Feature: t.feature[i], Threshold: t.thresh[i], Left: t.left[i], Right: t.right[i]}
}

// MaxFeatures bounds the split feature indices FromFlat accepts. No
// configuration space comes near it; a stored tree beyond it is corrupt,
// and predicting on it would need a feature vector that wide.
const MaxFeatures = 1 << 16

// FromFlat rebuilds a tree from its flattened form.
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
		// child at or before its parent (a node pointing at itself or back
		// up the tree in a corrupt snapshot) would send Predict round a
		// cycle forever.
		if int(n.Left) <= i || int(n.Right) <= i {
			return nil, fmt.Errorf("tree: node %d has child %d/%d not after it", i, n.Left, n.Right)
		}
		if n.Feature < 0 || n.Feature >= MaxFeatures {
			return nil, fmt.Errorf("tree: node %d splits on feature %d, want 0..%d", i, n.Feature, MaxFeatures-1)
		}
		t.feature[i] = n.Feature
		t.thresh[i] = n.Threshold
		t.left[i] = n.Left
		t.right[i] = n.Right
	}
	return t, nil
}
