package hm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// synthDS builds a nonlinear regression problem with positive targets.
func synthDS(n int, seed int64) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset(nil)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		t := 10 + 5*x[0] + x[1]*x[2]
		if x[0] > 7 {
			t *= 3 // a cliff, like an OOM boundary
		}
		ds.Add(x, t*(1+0.02*rng.NormFloat64()))
	}
	return ds
}

func quickOpt() Options {
	return Options{Trees: 300, LearningRate: 0.1, TreeComplexity: 5, Seed: 1}
}

func TestTrainLearnsNonlinearSurface(t *testing.T) {
	train := synthDS(1500, 1)
	test := synthDS(400, 2)
	m, err := Train(train, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	e := model.Evaluate(m, test)
	if e.Mean > 0.12 {
		t.Fatalf("HM mean error %.1f%% too high on synthetic surface", e.Mean*100)
	}
}

func TestHMBeatsSingleStump(t *testing.T) {
	train := synthDS(1000, 3)
	test := synthDS(300, 4)
	big, err := Train(train, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := Train(train, Options{Trees: 1, LearningRate: 1, TreeComplexity: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if model.Evaluate(big, test).Mean >= model.Evaluate(tiny, test).Mean {
		t.Fatal("boosted model no better than a single stump")
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(model.NewDataset(nil), quickOpt()); err == nil {
		t.Error("empty dataset should fail")
	}
	ds := synthDS(20, 5)
	ds.Targets[3] = -1
	if _, err := Train(ds, quickOpt()); err == nil {
		t.Error("negative target should fail")
	}
	// The compiled kernel holds five condition slots per tree, so tree
	// complexity above 5 is rejected by every entry point that grows trees.
	good := synthDS(200, 5)
	tc6 := quickOpt()
	tc6.TreeComplexity = 6
	if _, err := Train(good, tc6); err == nil {
		t.Error("tree complexity 6 should fail Train")
	}
	if _, err := Trajectory(good, tc6, []int{10}); err == nil {
		t.Error("tree complexity 6 should fail Trajectory")
	}
	if _, err := (Backend{Opt: tc6}).Train(good, model.TrainOpts{}); err == nil {
		t.Error("tree complexity 6 should fail through the backend")
	}
	m, err := Train(good, Options{Trees: 20, LearningRate: 0.1, TreeComplexity: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Resume(m, good, tc6, 10); err == nil {
		t.Error("tree complexity 6 should fail Resume")
	}
	if err := (Backend{Opt: tc6}).Resume(m, good, model.TrainOpts{}, 10); err == nil {
		t.Error("tree complexity 6 should fail Resume through the backend")
	}
}

func TestTrainDeterministicPerSeed(t *testing.T) {
	ds := synthDS(400, 6)
	m1, _ := Train(ds, quickOpt())
	m2, _ := Train(ds, quickOpt())
	x := []float64{5, 5, 5}
	if m1.Predict(x) != m2.Predict(x) {
		t.Fatal("same seed produced different models")
	}
	opt := quickOpt()
	opt.Seed = 99
	m3, _ := Train(ds, opt)
	if m1.Predict(x) == m3.Predict(x) {
		t.Error("different seeds produced identical models (suspicious)")
	}
}

func TestTargetAccuracyStopsEarly(t *testing.T) {
	ds := synthDS(800, 7)
	// A loose target should stop with far fewer trees than the budget.
	opt := quickOpt()
	opt.Trees = 5000
	opt.TargetAccuracy = 0.70
	m, err := Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() >= 5000 {
		t.Fatalf("loose accuracy target still used all %d trees", m.NumTrees())
	}
}

func TestHigherOrderTriggersOnHardTarget(t *testing.T) {
	ds := synthDS(300, 8)
	opt := Options{Trees: 30, LearningRate: 0.02, TreeComplexity: 1,
		TargetAccuracy: 0.999, MaxOrder: 3, Seed: 1, ConvergeWindow: 10}
	m, err := Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	// 30 weak stumps cannot reach 99.9% accuracy, so the hierarchical
	// recursion must have gone past order 1.
	if m.Order < 2 {
		t.Fatalf("order = %d, expected >= 2 under an unreachable target", m.Order)
	}
}

func TestPredictionsPositive(t *testing.T) {
	ds := synthDS(500, 9)
	m, err := Train(ds, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	f := func(int64) bool {
		x := []float64{rng.Float64() * 12, rng.Float64() * 12, rng.Float64() * 12}
		p := m.Predict(x)
		return p > 0 && !math.IsNaN(p) && !math.IsInf(p, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNoLogTargetMode(t *testing.T) {
	ds := synthDS(600, 11)
	opt := quickOpt()
	opt.NoLogTarget = true
	m, err := Train(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := model.Evaluate(m, synthDS(200, 12))
	if e.Mean > 0.2 {
		t.Fatalf("raw-target HM error %.1f%% too high", e.Mean*100)
	}
}

func TestTrajectoryMonotoneCheckpoints(t *testing.T) {
	ds := synthDS(800, 13)
	opt := Options{LearningRate: 0.1, TreeComplexity: 5, Seed: 1}
	errs, err := Trajectory(ds, opt, []int{10, 50, 200, 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 4 {
		t.Fatalf("got %d errors", len(errs))
	}
	// Errors should improve substantially from 10 to 600 trees.
	if errs[3] >= errs[0] {
		t.Fatalf("no improvement along trajectory: %v", errs)
	}
	// Checkpoints are returned in the caller's order.
	rev, err := Trajectory(ds, opt, []int{600, 10})
	if err != nil {
		t.Fatal(err)
	}
	if rev[0] != errs[3] || rev[1] != errs[0] {
		t.Error("trajectory did not preserve caller checkpoint order")
	}
}

func TestTrajectoryRejectsBadCheckpoints(t *testing.T) {
	ds := synthDS(100, 14)
	if _, err := Trajectory(ds, Options{}, nil); err == nil {
		t.Error("empty checkpoints should fail")
	}
	if _, err := Trajectory(ds, Options{}, []int{0}); err == nil {
		t.Error("checkpoint 0 should fail")
	}
}

func TestSolve(t *testing.T) {
	A := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, ok := solve(A, b)
	if !ok {
		t.Fatal("solve failed")
	}
	if math.Abs(2*x[0]+x[1]-5) > 1e-9 || math.Abs(x[0]+3*x[1]-10) > 1e-9 {
		t.Fatalf("solution wrong: %v", x)
	}
	if _, ok := solve([][]float64{{1, 1}, {1, 1}}, []float64{1, 2}); ok {
		t.Error("singular system should report !ok")
	}
}

func TestTrainerInterface(t *testing.T) {
	var b model.Backend = Backend{Opt: quickOpt()}
	if b.Name() != "hm" {
		t.Errorf("Name = %q", b.Name())
	}
	m, err := b.Train(synthDS(200, 15), model.TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{1, 2, 3}) <= 0 {
		t.Error("backend-built model predicts non-positive time")
	}
}
