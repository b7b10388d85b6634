package tree

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFromFlatWithCodesKeepsBinnedPath pins the persistence contract that
// makes binned training continuation possible: a tree rebuilt from its
// flattened form with codes, evaluated over rows encoded against the
// original builder's edges, must agree bit-for-bit with the original
// tree's float walk.
func TestFromFlatWithCodesKeepsBinnedPath(t *testing.T) {
	X, y := synth(500, 71)
	probe, _ := synth(150, 72)
	b := NewBuilder(X)
	rng := rand.New(rand.NewSource(73))
	for _, opt := range []Options{
		{MaxSplits: 1},
		{MaxSplits: 25, MinLeaf: 3},
	} {
		tr := b.Grow(y, allIdx(500), opt, rng)
		if !tr.HasBinCodes() {
			t.Fatal("builder-grown tree should carry bin codes")
		}
		back, err := FromFlatWithCodes(tr.Flatten())
		if err != nil {
			t.Fatal(err)
		}
		if !back.HasBinCodes() {
			t.Fatal("FromFlatWithCodes dropped the codes")
		}
		bm := BinWithEdges(b.Edges(), probe)
		const scale = 0.05
		want := make([]float64, len(probe))
		got := make([]float64, len(probe))
		tr.AccumulateBatch(probe, scale, want)
		back.AccumulateBinned(bm, scale, got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("opt %+v row %d: original float=%v reloaded binned=%v", opt, i, want[i], got[i])
			}
		}
	}
}

// TestFromFlatDropsCodes pins the legacy path: a codeless rebuild predicts
// identically over float rows but refuses the binned fast path.
func TestFromFlatDropsCodes(t *testing.T) {
	X, y := synth(400, 74)
	b := NewBuilder(X)
	tr := b.Grow(y, allIdx(400), Options{MaxSplits: 10}, nil)
	back, err := FromFlat(tr.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	if back.HasBinCodes() {
		t.Fatal("FromFlat should discard bin codes")
	}
	for _, row := range X[:50] {
		if tr.Predict(row) != back.Predict(row) {
			t.Fatal("codeless rebuild changed predictions")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AccumulateBinned on a codeless tree should panic")
		}
	}()
	back.AccumulateBinned(b.Binned(), 0.1, make([]float64, len(X)))
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
// node lists read back from stored snapshots. A self-loop or back-edge
// would otherwise load and send Predict round a cycle forever.
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
	} {
		if _, err := FromFlat(c.nodes); err == nil {
			t.Errorf("%s: FromFlat accepted a malformed tree", c.name)
		}
		if _, err := FromFlatWithCodes(c.nodes); err == nil {
			t.Errorf("%s: FromFlatWithCodes accepted a malformed tree", c.name)
		}
	}
}
