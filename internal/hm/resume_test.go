package hm

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tree"
)

// TestResumeAfterSaveLoadBitIdentical pins the persistence side of
// training continuation: Train → Save → Load → Resume must leave the exact
// model that Train → Resume leaves, with the reloaded model replaying its
// trees through the compiled kernel (hm.resume.replayed.trees counts every
// replayed tree).
func TestResumeAfterSaveLoadBitIdentical(t *testing.T) {
	ds := synthDS(600, 91)
	opt := Options{Trees: 120, LearningRate: 0.1, TreeComplexity: 5, Seed: 7}
	fresh, err := Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	optR := opt
	optR.Obs = reg
	if err := Resume(fresh, ds, opt, 40); err != nil {
		t.Fatal(err)
	}
	if err := Resume(loaded, ds, optR, 40); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("hm.resume.replayed.trees").Value() == 0 {
		t.Error("reloaded v2 model replayed no trees")
	}
	if fresh.NumTrees() != loaded.NumTrees() {
		t.Fatalf("tree counts diverged: %d vs %d", fresh.NumTrees(), loaded.NumTrees())
	}
	if fresh.ValErr != loaded.ValErr {
		t.Fatalf("ValErr diverged: %v vs %v", fresh.ValErr, loaded.ValErr)
	}
	probe := synthDS(150, 92)
	for i, x := range probe.Features {
		if a, b := fresh.Predict(x), loaded.Predict(x); a != b {
			t.Fatalf("probe %d: never-persisted resume %v != save/load resume %v", i, a, b)
		}
	}
}

// TestResumeLegacyV1Snapshot pins backward compatibility: a version-1
// stream must load, and Resume must continue it to the same model the
// never-persisted one reaches.
func TestResumeLegacyV1Snapshot(t *testing.T) {
	ds := synthDS(600, 93)
	opt := Options{Trees: 100, LearningRate: 0.1, TreeComplexity: 5, Seed: 11}
	m, err := Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Load(bytes.NewReader(encodeV1(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	if err := Resume(m, ds, opt, 30); err != nil {
		t.Fatal(err)
	}
	if err := Resume(legacy, ds, opt, 30); err != nil {
		t.Fatal(err)
	}
	probe := synthDS(120, 94)
	for i, x := range probe.Features {
		if a, b := m.Predict(x), legacy.Predict(x); a != b {
			t.Fatalf("probe %d: in-process resume %v != legacy resume %v", i, a, b)
		}
	}
}

// encodeV1 writes m in the version-1 snapshot schema, which has the
// current snapshot's fields under version number 1.
func encodeV1(t testing.TB, m *Model) []byte {
	t.Helper()
	s := snapshot{Version: 1, Log: m.log, Order: m.Order, ValErr: m.ValErr, Coefs: m.coefs}
	for _, fo := range m.subs {
		sf := snapshotFO{Base: fo.base, LR: fo.lr, Trees: make([][]tree.FlatNode, len(fo.trees))}
		for i, tr := range fo.trees {
			sf.Trees[i] = tr.Flatten()
		}
		s.Subs = append(s.Subs, sf)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeAppendsSubModels pins the hierarchical continuation: when the
// refit blend still misses the target accuracy, Resume must grow
// additional first-order sub-models — continuing Algorithm 1's recursion
// — up to MaxOrder, not merely stretch the last sub-model.
func TestResumeAppendsSubModels(t *testing.T) {
	ds := synthDS(500, 99)
	// Train a deliberately under-fit order-1 model (tiny tree budget, no
	// second order allowed).
	opt := Options{Trees: 20, LearningRate: 0.1, TreeComplexity: 5, Seed: 17, MaxOrder: 1}
	m, err := Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order != 1 {
		t.Fatalf("setup: order %d, want 1", m.Order)
	}

	// Resume with an unreachable target and room for two more orders: the
	// recursion must fill the order budget.
	reg := obs.NewRegistry()
	ropt := Options{Trees: 20, LearningRate: 0.1, TreeComplexity: 5, Seed: 17,
		MaxOrder: 3, TargetAccuracy: 0.9999, ConvergeWindow: 10, Obs: reg}
	if err := Resume(m, ds, ropt, 10); err != nil {
		t.Fatal(err)
	}
	if m.Order != 3 || len(m.subs) != 3 {
		t.Fatalf("resume reached order %d with %d sub-models, want 3/3", m.Order, len(m.subs))
	}
	if len(m.coefs) != 3 {
		t.Fatalf("blend has %d coefficients, want 3", len(m.coefs))
	}
	if got := reg.Counter("hm.resume.appended").Value(); got != 2 {
		t.Fatalf("hm.resume.appended = %d, want 2", got)
	}

	// Determinism: the same continuation from an identical starting model
	// must be bit-identical.
	m2, err := Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Resume(m2, ds, ropt, 10); err != nil {
		t.Fatal(err)
	}
	probe := synthDS(120, 100)
	for i, x := range probe.Features {
		if a, b := m.Predict(x), m2.Predict(x); a != b {
			t.Fatalf("probe %d: appended continuation not deterministic: %v != %v", i, a, b)
		}
	}

	// A model that already meets the target must not grow extra orders.
	sat, err := Train(ds, Options{Trees: 300, LearningRate: 0.1, TreeComplexity: 5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if 1-sat.ValErr < 0.90 {
		t.Skipf("setup: saturated model only reached %.3f accuracy", 1-sat.ValErr)
	}
	before := len(sat.subs)
	if err := Resume(sat, ds, Options{Trees: 300, LearningRate: 0.1, TreeComplexity: 5, Seed: 17, MaxOrder: 4}, 10); err != nil {
		t.Fatal(err)
	}
	if len(sat.subs) != before {
		t.Fatalf("resume appended %d sub-models to a model already at target", len(sat.subs)-before)
	}
}

// TestResumeAppendAfterSaveLoad pins that the appended-sub-model path is
// bit-identical across persistence, like the plain extension path.
func TestResumeAppendAfterSaveLoad(t *testing.T) {
	ds := synthDS(450, 101)
	opt := Options{Trees: 15, LearningRate: 0.1, TreeComplexity: 5, Seed: 19, MaxOrder: 1}
	fresh, err := Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ropt := Options{Trees: 15, LearningRate: 0.1, TreeComplexity: 5, Seed: 19,
		MaxOrder: 2, TargetAccuracy: 0.9999, ConvergeWindow: 10}
	if err := Resume(fresh, ds, ropt, 8); err != nil {
		t.Fatal(err)
	}
	if err := Resume(loaded, ds, ropt, 8); err != nil {
		t.Fatal(err)
	}
	if fresh.Order != 2 || loaded.Order != 2 {
		t.Fatalf("orders %d/%d, want 2/2", fresh.Order, loaded.Order)
	}
	if fresh.ValErr != loaded.ValErr {
		t.Fatalf("ValErr diverged: %v vs %v", fresh.ValErr, loaded.ValErr)
	}
	probe := synthDS(120, 102)
	for i, x := range probe.Features {
		if a, b := fresh.Predict(x), loaded.Predict(x); a != b {
			t.Fatalf("probe %d: never-persisted %v != save/load %v", i, a, b)
		}
	}
}

// TestResumeRejectsBadInput covers the resume guard rails.
func TestResumeRejectsBadInput(t *testing.T) {
	ds := synthDS(400, 97)
	m, err := Train(ds, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if err := Resume(&Model{}, ds, quickOpt(), 10); err == nil {
		t.Error("resume on an empty model should fail")
	}
	if err := Resume(m, ds, quickOpt(), 0); err == nil {
		t.Error("zero budget should fail")
	}
	if err := Resume(m, synthDS(5, 98), quickOpt(), 10); err == nil {
		t.Error("tiny dataset should fail")
	}
}

// TestLoadRejectsFutureVersion pins the schema gate.
func TestLoadRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snapshot{Version: snapshotVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("snapshot from a future schema version should be rejected")
	}
}

// TestResumeLeavesModelOnCompileError pins Resume's failure contract:
// when the grown model cannot be compiled — here a feature already at
// maxThresholds distinct thresholds gains new ones — Resume returns an
// error and the model predicts exactly as before.
func TestResumeLeavesModelOnCompileError(t *testing.T) {
	var trees [][]tree.FlatNode
	for k := 0; k < maxThresholds; k += 5 {
		var ts []float64
		for j := k; j < min(k+5, maxThresholds); j++ {
			ts = append(ts, float64(j))
		}
		trees = append(trees, chainTree(0, ts))
	}
	m, err := Load(bytes.NewReader(encodeSnapshot(t, trees...)))
	if err != nil {
		t.Fatal(err)
	}
	ds := model.NewDataset(nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		x := rng.Float64() * 10
		ds.Add([]float64{x}, 1+x*x)
	}
	probes := [][]float64{{0.5}, {3.25}, {9.75}, {40000}}
	before := make([]float64, len(probes))
	m.PredictBatch(probes, before)
	nTrees := m.NumTrees()
	err = Resume(m, ds, Options{Trees: 50, LearningRate: 0.1, Seed: 1}, 20)
	if err == nil || !strings.Contains(err.Error(), "distinct split thresholds") {
		t.Fatalf("resume past maxThresholds distinct thresholds: err %v", err)
	}
	if m.NumTrees() != nTrees {
		t.Fatalf("failed resume left %d trees, want %d", m.NumTrees(), nTrees)
	}
	for i, x := range probes {
		if got := m.Predict(x); got != before[i] || got != walkPredict(m, x) {
			t.Fatalf("probe %v: %v after the failed resume, %v before", x, got, before[i])
		}
	}
}
