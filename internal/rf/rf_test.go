package rf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

func synthDS(n int, seed int64) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset(nil)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		t := 5 + 3*x[0] + 2*x[1] + 0.5*x[0]*x[2]
		ds.Add(x, t*(1+0.02*rng.NormFloat64()))
	}
	return ds
}

func TestForestLearns(t *testing.T) {
	m, err := Train(synthDS(1200, 1), Options{Trees: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := model.Evaluate(m, synthDS(300, 2))
	if e.Mean > 0.15 {
		t.Fatalf("forest mean error %.1f%% too high", e.Mean*100)
	}
	if m.NumTrees() != 100 {
		t.Errorf("NumTrees = %d", m.NumTrees())
	}
}

func TestMoreTreesNotWorse(t *testing.T) {
	train := synthDS(600, 3)
	test := synthDS(200, 4)
	small, _ := Train(train, Options{Trees: 3, Seed: 1})
	big, _ := Train(train, Options{Trees: 150, Seed: 1})
	eSmall := model.Evaluate(small, test).Mean
	eBig := model.Evaluate(big, test).Mean
	if eBig > eSmall*1.1 {
		t.Fatalf("150 trees (%.3f) much worse than 3 trees (%.3f)", eBig, eSmall)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(model.NewDataset(nil), Options{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	ds := synthDS(300, 5)
	a, _ := Train(ds, Options{Trees: 20, Seed: 7})
	b, _ := Train(ds, Options{Trees: 20, Seed: 7})
	x := []float64{5, 5, 5}
	if a.Predict(x) != b.Predict(x) {
		t.Fatal("same seed differs")
	}
}

func TestPredictFinite(t *testing.T) {
	m, err := Train(synthDS(300, 6), Options{Trees: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 200; k++ {
		x := []float64{rng.Float64() * 20, rng.Float64() * 20, rng.Float64() * 20}
		p := m.Predict(x)
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v at %v", p, x)
		}
	}
}

func TestEmptyForestPredictsZero(t *testing.T) {
	var f Forest
	if f.Predict([]float64{1}) != 0 {
		t.Error("empty forest should predict 0")
	}
}

func TestForestFeatureImportance(t *testing.T) {
	m, err := Train(synthDS(600, 9), Options{Trees: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	if len(imp) != 3 {
		t.Fatalf("importance length %d", len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importance sums to %v", sum)
	}
	var empty Forest
	if empty.FeatureImportance() != nil {
		t.Error("empty forest importance should be nil")
	}
}

func TestTrainerInterface(t *testing.T) {
	var b model.Backend = Backend{Opt: Options{Trees: 10, Seed: 1}}
	if b.Name() != "rf" {
		t.Errorf("Name = %q", b.Name())
	}
	if _, err := b.Train(synthDS(100, 8), model.TrainOpts{}); err != nil {
		t.Fatal(err)
	}
}
