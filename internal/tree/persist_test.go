package tree

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFromFlatKeepsBinnedPath pins the persisted thresholds: a tree
// rebuilt from its flattened form, walked on bin codes derived from its
// thresholds over rows encoded against the original builder's edges,
// must agree bit-for-bit with the original tree's float walk.
func TestFromFlatKeepsBinnedPath(t *testing.T) {
	X, y := synth(500, 71)
	probe, _ := synth(150, 72)
	b := NewBuilder(X)
	rng := rand.New(rand.NewSource(73))
	for _, opt := range []Options{
		{MaxSplits: 1},
		{MaxSplits: 25, MinLeaf: 3},
	} {
		tr := b.Grow(y, allIdx(500), opt, rng)
		back, err := FromFlat(tr.Flatten())
		if err != nil {
			t.Fatal(err)
		}
		edges := b.Edges()
		bm := BinWithEdges(edges, probe)
		const scale = 0.05
		want := make([]float64, len(probe))
		got := make([]float64, len(probe))
		tr.AccumulateBatch(probe, scale, want)
		back.AccumulateBinned(edges, bm, scale, got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("opt %+v row %d: original float=%v reloaded binned=%v", opt, i, want[i], got[i])
			}
		}
	}
}

// TestBinWithEdgesMatchesBuilderBin checks the standalone encoder against
// the builder's own: same edges, same rows, same codes.
func TestBinWithEdgesMatchesBuilderBin(t *testing.T) {
	X, _ := synth(300, 75)
	probe, _ := synth(120, 76)
	b := NewBuilder(X)
	if !reflect.DeepEqual(b.Bin(probe), BinWithEdges(b.Edges(), probe)) {
		t.Fatal("BinWithEdges(builder.Edges(), rows) differs from builder.Bin(rows)")
	}
}

// TestFromFlatRejectsMalformed pins the decoder's structural checks on
// node lists read back from stored snapshots. A child pointing at itself
// or back up the tree would otherwise load and send Predict round a cycle
// forever.
func TestFromFlatRejectsMalformed(t *testing.T) {
	leaf := FlatNode{Leaf: true, Value: 1}
	for _, c := range []struct {
		name  string
		nodes []FlatNode
	}{
		{"empty", nil},
		{"self-loop", []FlatNode{{Feature: 0, Left: 0, Right: 1}, leaf}},
		{"back-edge", []FlatNode{{Feature: 0, Left: 1, Right: 2}, {Feature: 1, Left: 0, Right: 3}, leaf, leaf}},
		{"negative-child", []FlatNode{{Feature: 0, Left: -1, Right: 1}, leaf}},
		{"child-out-of-range", []FlatNode{{Feature: 0, Left: 1, Right: 2}, leaf}},
		{"negative-feature", []FlatNode{{Feature: -1, Left: 1, Right: 2}, leaf, leaf}},
		{"feature-2^16", []FlatNode{{Feature: MaxFeatures, Left: 1, Right: 2}, leaf, leaf}},
	} {
		if _, err := FromFlat(c.nodes); err == nil {
			t.Errorf("%s: FromFlat accepted a malformed tree", c.name)
		}
	}
}
