package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/ga"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// tuneOnce runs a small end-to-end Tune at the given parallelism and
// returns the best configuration vector and prediction for the target.
func tuneOnce(t *testing.T, parallelism int) ([]float64, float64) {
	t.Helper()
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	tuner := &Tuner{
		Space: conf.StandardSpace(),
		Exec: ExecutorFunc(func(cfg conf.Config, dsizeMB float64) float64 {
			return sim.Run(&w.Program, dsizeMB, cfg).TotalSec
		}),
		Opt: Options{
			NTrain:      120,
			HM:          hm.Options{Trees: 60, LearningRate: 0.1, TreeComplexity: 5},
			GA:          ga.Options{PopSize: 20, Generations: 8},
			Seed:        1,
			Parallelism: parallelism,
		},
	}
	target := w.InputMB(30)
	res, err := tuner.Tune(w.InputMB(10), w.InputMB(50), []float64{target})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best[target].Vector(), res.PredictedSec[target]
}

// TestTuneDeterministicAcrossParallelism pins the pipeline's determinism
// contract: the same seeds must give the same tuned configuration whether
// the collecting component runs on one goroutine or many. A violation
// means some stage's result depends on scheduling order — exactly the bug
// class the race suite exists to keep out.
func TestTuneDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tune skipped in -short mode")
	}
	wide := runtime.GOMAXPROCS(0) * 2
	if wide < 8 {
		wide = 8
	}
	vec1, pred1 := tuneOnce(t, 1)
	vecN, predN := tuneOnce(t, wide)
	if pred1 != predN {
		t.Errorf("predicted time differs across parallelism: %v vs %v", pred1, predN)
	}
	if len(vec1) != len(vecN) {
		t.Fatalf("config vector lengths differ: %d vs %d", len(vec1), len(vecN))
	}
	for i := range vec1 {
		if vec1[i] != vecN[i] {
			t.Errorf("best config dimension %d differs: %v (serial) vs %v (parallel %d)",
				i, vec1[i], vecN[i], wide)
		}
	}
}

// rowOnly hides a model's PredictBatch, forcing the tuner onto the
// pre-optimization per-row objective path.
type rowOnly struct{ model.Model }

// TestSearchBatchWiringMatchesSerialGA pins the tuner-level contract of
// the batched searcher: the dsize-appending batch objective, the genome
// cache, and the worker pool together must return the exact configuration
// and prediction the serial per-row search returns.
func TestSearchBatchWiringMatchesSerialGA(t *testing.T) {
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(4))
	ds := model.NewDataset(append(space.Names(), "dsize"))
	for i := 0; i < 300; i++ {
		x := append(space.Random(rng).Vector(), 100+900*rng.Float64())
		ds.Add(x, 10+0.5*x[0]+0.01*x[len(x)-1]*(1+0.02*rng.NormFloat64()))
	}
	m, err := hm.Train(ds, hm.Options{Trees: 80, LearningRate: 0.1, TreeComplexity: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	run := func(mm model.Model, gaOpt ga.Options, reg *obs.Registry) ([]float64, float64) {
		tuner := &Tuner{Space: space, Opt: Options{GA: gaOpt, Seed: 9}, Obs: reg}
		cfg, pred, _, _, err := tuner.Search(mm, 500, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Vector(), pred
	}
	base := ga.Options{PopSize: 20, Generations: 12}
	refOpt := base
	refOpt.Workers = 1
	refVec, refPred := run(rowOnly{m}, refOpt, nil)
	for _, tc := range []struct {
		label string
		reg   *obs.Registry
	}{{"plain", nil}, {"observed", obs.NewRegistry()}} {
		vec, pred := run(m, base, tc.reg)
		if pred != refPred {
			t.Fatalf("%s: prediction %v differs from serial reference %v", tc.label, pred, refPred)
		}
		for i := range refVec {
			if vec[i] != refVec[i] {
				t.Fatalf("%s: config dimension %d differs: %v vs %v", tc.label, i, vec[i], refVec[i])
			}
		}
	}
}

// TestRegistryGAMatchesDefault pins the searcher resolution rule: the
// registry's "ga" carries the tuner's GA options, so a tune selecting it
// equals the default (nil-searcher) tune exactly — not a GA at the
// registry's zero-value 100-individual shape.
func TestRegistryGAMatchesDefault(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	tune := func(s search.Searcher) *TuneResult {
		sim := sparksim.New(cluster.Standard(), 8)
		tuner := &Tuner{
			Space: conf.StandardSpace(),
			Exec:  NewSimExecutor(sim, &w.Program),
			Opt: Options{
				NTrain:   120,
				HM:       hm.Options{Trees: 60, LearningRate: 0.1, TreeComplexity: 5},
				GA:       ga.Options{PopSize: 30, Generations: 6},
				Searcher: s,
				Seed:     1,
			},
		}
		res, err := tuner.Tune(w.InputMB(10), w.InputMB(50), []float64{w.InputMB(30)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gaSearcher, err := search.Default().Lookup("ga")
	if err != nil {
		t.Fatal(err)
	}
	target := w.InputMB(30)
	ref, got := tune(nil), tune(gaSearcher)
	if !reflect.DeepEqual(got.Best[target].Vector(), ref.Best[target].Vector()) {
		t.Error("registry ga tuned a different configuration than the default path")
	}
	if got.PredictedSec[target] != ref.PredictedSec[target] {
		t.Errorf("predictions differ: %v vs %v", got.PredictedSec[target], ref.PredictedSec[target])
	}
	if !reflect.DeepEqual(got.GA[target], ref.GA[target]) {
		t.Errorf("GA results differ: %d vs %d evaluations over %d vs %d generations",
			got.GA[target].Evaluations, ref.GA[target].Evaluations, len(got.GA[target].History), len(ref.GA[target].History))
	}
}
