package ann

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
		t := 20 + 8*x[0] + 3*x[1]*x[1]
		ds.Add(x, t*(1+0.02*rng.NormFloat64()))
	}
	return ds
}

func quickOpt() Options {
	return Options{Hidden: []int{16}, Epochs: 150, Seed: 1}
}

func TestNetworkLearns(t *testing.T) {
	m, err := Train(synthDS(800, 1), quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	e := model.Evaluate(m, synthDS(200, 2))
	if e.Mean > 0.15 {
		t.Fatalf("ANN mean error %.1f%% too high", e.Mean*100)
	}
}

func TestTrainingBeatsInitialization(t *testing.T) {
	train := synthDS(500, 3)
	test := synthDS(200, 4)
	untrained, _ := Train(train, Options{Hidden: []int{16}, Epochs: 1, Seed: 1})
	trained, _ := Train(train, Options{Hidden: []int{16}, Epochs: 200, Seed: 1})
	if model.Evaluate(trained, test).Mean >= model.Evaluate(untrained, test).Mean {
		t.Fatal("200 epochs no better than 1 epoch")
	}
}

func TestRejectsBadInput(t *testing.T) {
	if _, err := Train(model.NewDataset(nil), quickOpt()); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	ds := synthDS(200, 5)
	a, _ := Train(ds, quickOpt())
	b, _ := Train(ds, quickOpt())
	if a.Predict([]float64{1, 1}) != b.Predict([]float64{1, 1}) {
		t.Fatal("same seed differs")
	}
}

func TestPredictionsFinitePositive(t *testing.T) {
	m, err := Train(synthDS(400, 6), quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 100; k++ {
		x := []float64{rng.Float64() * 8, rng.Float64() * 8}
		p := m.Predict(x)
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v at %v", p, x)
		}
	}
}

func TestTrainerInterface(t *testing.T) {
	var b model.Backend = Backend{Opt: quickOpt()}
	if b.Name() != "ann" {
		t.Errorf("Name = %q", b.Name())
	}
	if _, err := b.Train(synthDS(100, 8), model.TrainOpts{}); err != nil {
		t.Fatal(err)
	}
}
