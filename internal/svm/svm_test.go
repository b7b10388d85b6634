package svm

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
		x := []float64{rng.Float64() * 4, rng.Float64() * 4}
		t := 15 + 6*x[0] + 2*x[1]
		ds.Add(x, t*(1+0.02*rng.NormFloat64()))
	}
	return ds
}

func TestSVRLearns(t *testing.T) {
	m, err := Train(synthDS(600, 1), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := model.Evaluate(m, synthDS(200, 2))
	if e.Mean > 0.12 {
		t.Fatalf("SVR mean error %.1f%% too high", e.Mean*100)
	}
	if m.NumSupportVectors() == 0 {
		t.Error("no support vectors retained")
	}
}

func TestEpsilonTubeSparsity(t *testing.T) {
	ds := synthDS(400, 3)
	tight, _ := Train(ds, Options{Epsilon: 0.001, Seed: 1})
	loose, _ := Train(ds, Options{Epsilon: 0.5, Seed: 1})
	if loose.NumSupportVectors() > tight.NumSupportVectors() {
		t.Errorf("wider tube kept more SVs (%d) than narrow (%d)",
			loose.NumSupportVectors(), tight.NumSupportVectors())
	}
}

func TestRejectsBadInput(t *testing.T) {
	if _, err := Train(model.NewDataset(nil), Options{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	ds := synthDS(200, 4)
	a, _ := Train(ds, Options{Seed: 9})
	b, _ := Train(ds, Options{Seed: 9})
	if a.Predict([]float64{2, 2}) != b.Predict([]float64{2, 2}) {
		t.Fatal("same seed differs")
	}
}

func TestPredictionsFinitePositive(t *testing.T) {
	m, err := Train(synthDS(300, 5), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 100; k++ {
		x := []float64{rng.Float64() * 8, rng.Float64() * 8}
		p := m.Predict(x)
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v at %v", p, x)
		}
	}
}

func TestRBFKernelProperties(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, -1}
	if got := rbf(a, a, 0.5); got != 1 {
		t.Errorf("k(x,x) = %v, want 1", got)
	}
	if got := rbf(a, b, 0.5); got <= 0 || got >= 1 {
		t.Errorf("k(a,b) = %v, want in (0,1)", got)
	}
	if rbf(a, b, 0.5) != rbf(b, a, 0.5) {
		t.Error("kernel not symmetric")
	}
}

func TestTrainerInterface(t *testing.T) {
	var b model.Backend = Backend{}
	if b.Name() != "svm" {
		t.Errorf("Name = %q", b.Name())
	}
	if _, err := b.Train(synthDS(100, 7), model.TrainOpts{}); err != nil {
		t.Fatal(err)
	}
}
