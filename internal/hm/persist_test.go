package hm

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tree"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := synthDS(600, 40)
	m, err := Train(ds, Options{Trees: 200, LearningRate: 0.1, TreeComplexity: 5,
		MaxOrder: 2, TargetAccuracy: 0.999, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Order != m.Order || back.ValErr != m.ValErr {
		t.Errorf("metadata changed: order %d->%d valerr %v->%v", m.Order, back.Order, m.ValErr, back.ValErr)
	}
	rng := rand.New(rand.NewSource(41))
	for k := 0; k < 200; k++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		a, b := m.Predict(x), back.Predict(x)
		if a != b {
			t.Fatalf("prediction changed after reload: %v != %v at %v", a, b, x)
		}
	}
}

// TestLegacySnapshotLoadsBitIdentically pins backward compatibility
// with v2 snapshots written before the fast histogram path existed.
// What such a stream must reproduce is the stored trees — thresholds and
// leaves — not the split search that grew them, so a snapshot of a
// default-trained model stands in for it. It must load with
// bit-identical predictions, and the loaded model must resume by
// replaying every stored tree of its last sub-model.
func TestLegacySnapshotLoadsBitIdentically(t *testing.T) {
	ds := synthDS(500, 43)
	m, err := Train(ds, Options{Trees: 120, LearningRate: 0.1, TreeComplexity: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	for k := 0; k < 200; k++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		if a, b := m.Predict(x), back.Predict(x); a != b {
			t.Fatalf("legacy-shape snapshot predicts differently after reload: %v != %v", a, b)
		}
	}
	reg := obs.NewRegistry()
	if err := Resume(back, ds, Options{Trees: 140, LearningRate: 0.1, TreeComplexity: 5, Seed: 7, Obs: reg}, 20); err != nil {
		t.Fatal(err)
	}
	if back.NumTrees() <= m.NumTrees() {
		t.Fatalf("resume grew no trees: %d -> %d", m.NumTrees(), back.NumTrees())
	}
	if got := reg.Counter("hm.resume.replayed.trees").Value(); got != int64(len(m.subs[len(m.subs)-1].trees)) {
		t.Fatalf("resume replayed %d stored trees, want %d", got, len(m.subs[len(m.subs)-1].trees))
	}
}

// v2CodesBits are the float64 bits of the fixture model's predictions on
// fixtureProbe, taken by the writer that saved testdata/v2_codes.gob.
var v2CodesBits = []uint64{
	0x402c4da2a7466e78, 0x4045994535ee18ae, 0x4049c630b11f7064, 0x4049ea88950eba0c,
	0x4068a2a2c4a1d2e1, 0x406b75901d754846, 0x404649d46669744d, 0x404739beaad0f1ff,
	0x404027d7c10185da, 0x40525c9e414ef2f2, 0x406c363769d00562, 0x406440f022aa16aa,
	0x404a9a158e60bbab, 0x403ab34e43b38a4f, 0x404e7d2176ef71f3, 0x405405e402acf9c4,
	0x406341dd8b13c6c1, 0x407036747b640478, 0x40461a746aa1ec8d, 0x4040461e4ea17e5f,
	0x4054ce72e0ab9ced, 0x4044b20c03b8b782, 0x40657f8d6ab8f030, 0x40714d965723ed11,
	0x40690de8557e316b, 0x4052fb757690447b,
}

// fixtureProbe is the fixed probe the committed snapshot fixtures'
// prediction bits were taken on: 24 counting rows and two rows of NaN
// and ±Inf.
func fixtureProbe() [][]float64 {
	var rows [][]float64
	for i := 0; i < 24; i++ {
		rows = append(rows, []float64{float64(i%6)*1.7 + 0.05*float64(i), float64(i*7%11) * 0.9, float64(i*5%13) * 0.77})
	}
	return append(rows, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}, []float64{math.Inf(-1), math.NaN(), math.Inf(1)})
}

// TestLegacyCodedFixtureLoadsBitIdentically loads testdata/v2_codes.gob,
// a version-2 snapshot of a 40-tree model (synthDS(300, 131), Trees 40,
// TreeComplexity 3, MaxOrder 1, Seed 13) written while snapshots still
// carried the builder's bin edges and per-node bin codes. Load must
// reproduce the writer's predictions bit for bit, and the loaded model
// must resume, replaying every stored tree.
func TestLegacyCodedFixtureLoadsBitIdentically(t *testing.T) {
	data, err := os.ReadFile("testdata/v2_codes.gob")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	probe := fixtureProbe()
	if len(probe) != len(v2CodesBits) {
		t.Fatalf("%d probe rows, %d recorded predictions", len(probe), len(v2CodesBits))
	}
	out := make([]float64, len(probe))
	m.PredictBatch(probe, out)
	for i, x := range probe {
		if got := math.Float64bits(m.Predict(x)); got != v2CodesBits[i] {
			t.Fatalf("row %d: Predict bits %#016x, writer's %#016x", i, got, v2CodesBits[i])
		}
		if got := math.Float64bits(out[i]); got != v2CodesBits[i] {
			t.Fatalf("row %d: PredictBatch bits %#016x, writer's %#016x", i, got, v2CodesBits[i])
		}
	}
	stored := m.NumTrees()
	reg := obs.NewRegistry()
	if err := Resume(m, synthDS(300, 132), Options{Trees: 60, LearningRate: 0.1, TreeComplexity: 3, Seed: 13, Obs: reg}, 10); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("hm.resume.replayed.trees").Value(); got != int64(stored) {
		t.Fatalf("resume replayed %d stored trees, want %d", got, stored)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage should fail to load")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail to load")
	}
	// A well-formed stream whose tree's right child points back at its
	// root: Predict on it would never return.
	var buf bytes.Buffer
	cyclic := snapshot{Version: snapshotVersion, Coefs: []float64{1}, Subs: []snapshotFO{{LR: 0.1,
		Trees: [][]tree.FlatNode{{{Feature: 0, Left: 1, Right: 0}, {Leaf: true, Value: 1}}}}}}
	if err := gob.NewEncoder(&buf).Encode(cyclic); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("snapshot with a cyclic tree should fail to load")
	}
}

// TestLoadRejectsUnscorableSnapshots pins Load's bounds: a snapshot the
// compiled kernel cannot score fails with an error instead of panicking
// or allocating without bound.
func TestLoadRejectsUnscorableSnapshots(t *testing.T) {
	// spread holds n distinct thresholds on feature 0, five per tree.
	spread := func(n int) [][]tree.FlatNode {
		var trees [][]tree.FlatNode
		for k := 0; k < n; k += 5 {
			var ts []float64
			for j := k; j < min(k+5, n); j++ {
				ts = append(ts, float64(j))
			}
			trees = append(trees, chainTree(0, ts))
		}
		return trees
	}
	for _, c := range []struct {
		name  string
		trees [][]tree.FlatNode
	}{
		{"six splits", [][]tree.FlatNode{chainTree(0, []float64{1, 2, 3, 4, 5, 6})}},
		{"32768 thresholds", spread(maxThresholds + 1)},
		{"feature 2^31-1", [][]tree.FlatNode{chainTree(math.MaxInt32, []float64{1})}},
		{"feature 2^16", [][]tree.FlatNode{chainTree(tree.MaxFeatures, []float64{1})}},
	} {
		if _, err := Load(bytes.NewReader(encodeSnapshot(t, c.trees...))); err == nil {
			t.Errorf("%s: Load accepted a snapshot the kernel cannot score", c.name)
		}
	}
	// One threshold fewer, and a feature just below the bound, still load.
	if _, err := Load(bytes.NewReader(encodeSnapshot(t, spread(maxThresholds)...))); err != nil {
		t.Errorf("32767 thresholds: %v", err)
	}
	if _, err := Load(bytes.NewReader(encodeSnapshot(t, chainTree(tree.MaxFeatures-1, []float64{1})))); err != nil {
		t.Errorf("feature 2^16-1: %v", err)
	}
}
