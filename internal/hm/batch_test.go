package hm

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestPredictBatchMatchesPredict pins the batch contract: for single- and
// multi-order models, log and raw targets, PredictBatch must agree
// bit-for-bit with per-row Predict.
func TestPredictBatchMatchesPredict(t *testing.T) {
	ds := synthDS(500, 51)
	probe := synthDS(200, 52)
	opts := []Options{
		quickOpt(),
		{Trees: 30, LearningRate: 0.02, TreeComplexity: 1, TargetAccuracy: 0.999,
			MaxOrder: 3, Seed: 1, ConvergeWindow: 10}, // forces order >= 2
	}
	noLog := quickOpt()
	noLog.NoLogTarget = true
	opts = append(opts, noLog)
	for _, opt := range opts {
		m, err := Train(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, probe.Len())
		m.PredictBatch(probe.Features, out)
		for i, row := range probe.Features {
			if got := m.Predict(row); got != out[i] {
				t.Fatalf("opt %+v row %d: Predict=%v PredictBatch=%v (order %d)",
					opt, i, got, out[i], m.Order)
			}
		}
	}
}

// TestTrainWorkersEquivalence pins the parallel-training determinism
// contract: serial (Workers=1) and parallel training must produce models
// with bit-identical predictions, orders, and validation errors — the
// tuner's output cannot depend on the trainer's core count.
func TestTrainWorkersEquivalence(t *testing.T) {
	ds := synthDS(600, 53)
	probes := synthDS(100, 54).Features
	for _, baseOpt := range []Options{
		{Trees: 120, LearningRate: 0.1, TreeComplexity: 5, Seed: 3},
		{Trees: 30, LearningRate: 0.02, TreeComplexity: 1, TargetAccuracy: 0.999,
			MaxOrder: 3, Seed: 3, ConvergeWindow: 10},
	} {
		serialOpt := baseOpt
		serialOpt.Workers = 1
		serial, err := Train(ds, serialOpt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, runtime.GOMAXPROCS(0), 9} {
			parOpt := baseOpt
			parOpt.Workers = workers
			par, err := Train(ds, parOpt)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Order != par.Order || serial.ValErr != par.ValErr {
				t.Fatalf("workers=%d: order/valerr differ: (%d, %v) vs (%d, %v)",
					workers, serial.Order, serial.ValErr, par.Order, par.ValErr)
			}
			if serial.NumTrees() != par.NumTrees() {
				t.Fatalf("workers=%d: tree counts differ: %d vs %d",
					workers, serial.NumTrees(), par.NumTrees())
			}
			for i, x := range probes {
				if a, b := serial.Predict(x), par.Predict(x); a != b {
					t.Fatalf("workers=%d probe %d: %v vs %v", workers, i, a, b)
				}
			}
		}
	}
}

// TestTrainDeterministicAcrossGOMAXPROCS checks that the default
// (parallel) training path is scheduling-independent, not just
// worker-count independent.
func TestTrainDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ds := synthDS(400, 55)
	opt := Options{Trees: 80, LearningRate: 0.1, TreeComplexity: 5, Seed: 5}

	prev := runtime.GOMAXPROCS(1)
	one, err := Train(ds, opt)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	many, err := Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(56))
	for k := 0; k < 50; k++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		if a, b := one.Predict(x), many.Predict(x); a != b {
			t.Fatalf("GOMAXPROCS=1 vs default differ at %v: %v vs %v", x, a, b)
		}
	}
}
