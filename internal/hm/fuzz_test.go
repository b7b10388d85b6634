package hm

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/tree"
)

// chainTree returns a flattened tree of len(ts) splits on feature f:
// node 2i splits at ts[i], its left child 2i+1 is a leaf valued i+1 and
// its right child 2i+2 the next split, or the last leaf.
func chainTree(f int32, ts []float64) []tree.FlatNode {
	var nodes []tree.FlatNode
	for i, t := range ts {
		nodes = append(nodes, tree.FlatNode{Feature: f, Threshold: t, Left: int32(2*i + 1), Right: int32(2*i + 2)},
			tree.FlatNode{Leaf: true, Value: float64(i + 1)})
	}
	return append(nodes, tree.FlatNode{Leaf: true, Value: float64(len(ts) + 1)})
}

// encodeSnapshot gob-encodes a current-version snapshot holding one
// sub-model of the given trees.
func encodeSnapshot(t testing.TB, trees ...[]tree.FlatNode) []byte {
	t.Helper()
	s := snapshot{Version: snapshotVersion, Log: true, Order: 1, Coefs: []float64{1},
		Subs: []snapshotFO{{Base: 1, LR: 0.1, Trees: trees}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoad feeds Load arbitrary bytes, seeded with a v1 and a v2 snapshot
// of a small trained model and a snapshot holding a 6-split tree. Load
// must never panic, and every model it accepts must answer Predict and
// PredictBatch — on a counting probe and on a NaN/±Inf probe — exactly as
// the pointer walk does. Load bounds split features below tree.MaxFeatures,
// so the probe is always allocatable.
func FuzzLoad(f *testing.F) {
	m, err := Train(synthDS(120, 61), Options{Trees: 12, LearningRate: 0.1, TreeComplexity: 3,
		MaxOrder: 2, TargetAccuracy: 0.999, ConvergeWindow: 10, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := m.Save(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(encodeV1(f, m))
	f.Add(encodeSnapshot(f, chainTree(1, []float64{1, 2, 3, 4, 5, 6})))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		width := 1
		for _, fo := range m.subs {
			for _, tr := range fo.trees {
				for _, n := range tr.Flatten() {
					if !n.Leaf && int(n.Feature) >= width {
						width = int(n.Feature) + 1
					}
				}
			}
		}
		count := make([]float64, width)
		special := make([]float64, width)
		for i := range count {
			count[i] = float64(i)
			special[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		}
		for _, x := range [][]float64{count, special} {
			want := walkPredict(m, x)
			if got := m.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Predict %v, walk %v", got, want)
			}
			out := make([]float64, 1)
			m.PredictBatch([][]float64{x}, out)
			if math.Float64bits(out[0]) != math.Float64bits(want) {
				t.Fatalf("PredictBatch %v, walk %v", out[0], want)
			}
		}
	})
}
