package hm

import (
	"bytes"
	"encoding/gob"
	"math/rand"
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
// What such a stream must reproduce is the stored trees — thresholds,
// leaves and bin codes against the stored edges — not the split search
// that grew them, so a snapshot of a default-trained model stands in
// for it. It must load with bit-identical predictions, and the loaded
// model must resume by replaying its stored codes on the binned path.
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
	if got := reg.Counter("hm.resume.binned.trees").Value(); got != int64(len(m.subs[len(m.subs)-1].trees)) {
		t.Fatalf("resume replayed %d trees from stored codes, want %d", got, len(m.subs[len(m.subs)-1].trees))
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
