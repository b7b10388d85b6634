package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/backends"
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

// rowOnly hides a model's PredictBatch, forcing the tuner's objective
// onto model.PredictBatch's per-row fallback.
type rowOnly struct{ model.Model }

// TestSearchBatchWiringMatchesSerialGA pins the tuner-level contract of
// the searcher's one objective: the dsize-appending block objective, the
// genome cache, and the worker pool together must return the exact
// configuration and prediction the serial per-row search returns — for
// the point prediction (against a model without a batch path) and for
// RobustSearch (against a per-row GA over prediction + κ·dispersion).
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
	// Robust search needs sub-model dispersion: a model recursing to
	// order 3, as the tuner trains one for RobustSearch.
	um, err := hm.Train(ds, hm.Options{Trees: 80, LearningRate: 0.1, TreeComplexity: 5, Seed: 2,
		MaxOrder: 3, TargetAccuracy: 0.999})
	if err != nil {
		t.Fatal(err)
	}

	const dsize, seed = 500, 9
	run := func(mm model.Model, opt Options, reg *obs.Registry) ([]float64, float64) {
		opt.Seed = seed
		tuner := &Tuner{Space: space, Opt: opt, Obs: reg}
		cfg, pred, _, _, err := tuner.Search(mm, dsize, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Vector(), pred
	}
	same := func(label string, vec []float64, pred float64, refVec []float64, refPred float64) {
		t.Helper()
		if pred != refPred {
			t.Fatalf("%s: prediction %v differs from serial reference %v", label, pred, refPred)
		}
		for i := range refVec {
			if vec[i] != refVec[i] {
				t.Fatalf("%s: config dimension %d differs: %v vs %v", label, i, vec[i], refVec[i])
			}
		}
	}
	base := ga.Options{PopSize: 20, Generations: 12}
	refOpt := base
	refOpt.Workers = 1
	refVec, refPred := run(rowOnly{m}, Options{GA: refOpt}, nil)

	// RobustSearch's reference is a serial GA over the per-row penalized
	// prediction, seeded the way the tuner derives its search seed.
	const kappa = 1.5
	robustRef := refOpt
	robustRef.Seed = seed + 2
	rres := ga.Minimize(space, ga.Scalar(func(x []float64) float64 {
		pred, std := um.PredictWithUncertainty(append(append([]float64(nil), x...), dsize))
		return pred + kappa*std
	}), nil, robustRef)
	rcfg, err := space.FromVector(rres.Best)
	if err != nil {
		t.Fatal(err)
	}
	if _, std := um.PredictWithUncertainty(append(append([]float64(nil), rres.Best...), dsize)); std == 0 {
		t.Fatal("robust reference has zero dispersion at its best: the penalty is inert")
	}

	for _, tc := range []struct {
		label string
		reg   *obs.Registry
	}{{"plain", nil}, {"observed", obs.NewRegistry()}} {
		vec, pred := run(m, Options{GA: base}, tc.reg)
		same(tc.label, vec, pred, refVec, refPred)
		vec, pred = run(um, Options{GA: base, RobustSearch: true, RobustKappa: kappa}, tc.reg)
		same(tc.label+"/robust", vec, pred, rcfg.Vector(), rres.BestFitness)
	}
}

// TestRegistryGAMatchesDefault pins the stage resolution rules: the
// registry's "ga" carries the tuner's GA options, and the registry's "hm"
// — like any hm.Backend, whatever its own shape — carries the tuner's HM
// options, so selecting either equals the default (nil searcher, nil
// backend) exactly — not a GA at the registry's zero-value 100-individual
// shape, nor an HM at the backend's. The backend cases also run a quick
// TuneOnline, which covers the resolved warm-started refit.
func TestRegistryGAMatchesDefault(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	newTuner := func(s search.Searcher, b model.Backend) *Tuner {
		sim := sparksim.New(cluster.Standard(), 8)
		return &Tuner{
			Space: conf.StandardSpace(),
			Exec:  NewSimExecutor(sim, &w.Program),
			Opt: Options{
				NTrain:   120,
				HM:       hm.Options{Trees: 60, LearningRate: 0.1, TreeComplexity: 5},
				GA:       ga.Options{PopSize: 30, Generations: 6},
				Backend:  b,
				Searcher: s,
				Seed:     1,
			},
		}
	}
	target := w.InputMB(30)
	tune := func(s search.Searcher, b model.Backend) *TuneResult {
		res, err := newTuner(s, b).Tune(w.InputMB(10), w.InputMB(50), []float64{target})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	oo := OnlineOptions{ScreenSamples: 60, TopK: 8, Iterations: 2, IterBatch: 8, ExtraTrees: 30}
	tuneOnline := func(b model.Backend) *OnlineResult {
		res, err := newTuner(nil, b).TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), target, oo, RowHooks{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gaSearcher, err := search.Default().Lookup("ga")
	if err != nil {
		t.Fatal(err)
	}
	hmBackend, err := backends.Default().Lookup("hm")
	if err != nil {
		t.Fatal(err)
	}
	ref := tune(nil, nil)
	refOnline := tuneOnline(nil)
	for _, tc := range []struct {
		name     string
		searcher search.Searcher
		backend  model.Backend
	}{
		{"registry ga", gaSearcher, nil},
		{"registry hm", nil, hmBackend},
		{"hm of another shape", nil, hm.Backend{Opt: hm.Options{Trees: 7, LearningRate: 0.3, TreeComplexity: 2, Seed: 99}}},
	} {
		got := tune(tc.searcher, tc.backend)
		if !reflect.DeepEqual(got.Best[target].Vector(), ref.Best[target].Vector()) {
			t.Errorf("%s: tuned a different configuration than the default path", tc.name)
		}
		if got.PredictedSec[target] != ref.PredictedSec[target] {
			t.Errorf("%s: predictions differ: %v vs %v", tc.name, got.PredictedSec[target], ref.PredictedSec[target])
		}
		if !reflect.DeepEqual(got.GA[target], ref.GA[target]) {
			t.Errorf("%s: GA results differ: %d vs %d evaluations over %d vs %d generations", tc.name,
				got.GA[target].Evaluations, ref.GA[target].Evaluations, len(got.GA[target].History), len(ref.GA[target].History))
		}
		if tc.backend == nil {
			continue
		}
		on := tuneOnline(tc.backend)
		if !reflect.DeepEqual(on.Best.Vector(), refOnline.Best.Vector()) || on.MeasuredSec != refOnline.MeasuredSec ||
			on.PredictedSec != refOnline.PredictedSec {
			t.Errorf("%s: online best %v (measured %v, predicted %v) differs from the default path's (%v, %v)", tc.name,
				on.Best.Vector(), on.MeasuredSec, on.PredictedSec, refOnline.MeasuredSec, refOnline.PredictedSec)
		}
		if !reflect.DeepEqual(on.Screened, refOnline.Screened) || !reflect.DeepEqual(on.Iterations, refOnline.Iterations) {
			t.Errorf("%s: online screening or iterations differ from the default path", tc.name)
		}
	}
}

// TestConcurrentSearchesMatchSerial pins the concurrent per-target
// search: a five-target TuneCollected, whose searches run at once, must
// return for every target exactly what a lone Search call returns when
// the targets are searched one at a time — best vector, prediction, GA
// history and evaluation count — at GOMAXPROCS 1 and 4, and the
// "search" progress calls must count completions 1..n in order.
func TestConcurrentSearchesMatchSerial(t *testing.T) {
	w, err := workloads.ByAbbr("PR")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	tuner := &Tuner{
		Space: conf.StandardSpace(),
		Exec:  NewSimExecutor(sim, &w.Program),
		Opt: Options{
			NTrain: 120,
			HM:     hm.Options{Trees: 60, LearningRate: 0.1, TreeComplexity: 5},
			GA:     ga.Options{PopSize: 20, Generations: 10},
			Seed:   2,
		},
		Obs: obs.NewRegistry(),
	}
	targets := w.SizesMB()
	if len(targets) != 5 {
		t.Fatalf("%s has %d target sizes, want 5", w.Abbr, len(targets))
	}
	set, ovC, err := tuner.Collect(tuner.TrainingSizesMB(targets[0]*0.8, targets[len(targets)-1]*1.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var searched []int
		res, err := tuner.TuneCollected(set, ovC, targets, func(phase string, done, total int) {
			if phase == "search" {
				searched = append(searched, done)
			}
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for k, done := range searched {
			if done != k+1 {
				t.Fatalf("GOMAXPROCS=%d: search progress %v, want 1..%d", procs, searched, len(targets))
			}
		}
		if len(searched) != len(targets) {
			t.Fatalf("GOMAXPROCS=%d: search progress %v, want 1..%d", procs, searched, len(targets))
		}
		seeds := seedConfsFrom(set, tuner.Opt.GA.PopSize, rand.New(rand.NewSource(tuner.Opt.Seed+5)))
		for _, target := range targets {
			cfg, pred, gaRes, _, err := tuner.Search(res.Model, target, seeds)
			if err != nil {
				t.Fatal(err)
			}
			got := res.GA[target]
			if !reflect.DeepEqual(res.Best[target].Vector(), cfg.Vector()) || res.PredictedSec[target] != pred {
				t.Errorf("GOMAXPROCS=%d, %.0f MB: concurrent search tuned %v (%v), lone search %v (%v)",
					procs, target, res.Best[target].Vector(), res.PredictedSec[target], cfg.Vector(), pred)
			}
			if !reflect.DeepEqual(got.History, gaRes.History) || got.Evaluations != gaRes.Evaluations {
				t.Errorf("GOMAXPROCS=%d, %.0f MB: GA history or evaluations differ: %d vs %d evaluations",
					procs, target, got.Evaluations, gaRes.Evaluations)
			}
		}
	}
}
