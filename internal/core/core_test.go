package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/ga"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// testTuner wires a small-budget tuner over the TeraSort workload.
func testTuner(t *testing.T) (*Tuner, *workloads.Workload) {
	t.Helper()
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	return &Tuner{
		Space: conf.StandardSpace(),
		Exec: ExecutorFunc(func(cfg conf.Config, dsizeMB float64) float64 {
			return sim.Run(&w.Program, dsizeMB, cfg).TotalSec
		}),
		Opt: Options{
			NTrain: 300,
			HM:     hm.Options{Trees: 200, LearningRate: 0.1, TreeComplexity: 5},
			GA:     ga.Options{PopSize: 30, Generations: 20},
			Seed:   1,
		},
	}, w
}

func TestTrainingSizesRespectEq4(t *testing.T) {
	tuner, _ := testTuner(t)
	sizes := tuner.TrainingSizesMB(8*1024, 56*1024)
	if len(sizes) != 10 {
		t.Fatalf("got %d sizes, want m=10", len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		gap := (sizes[i] - sizes[i-1]) / sizes[i-1]
		if gap < 0.10-1e-9 {
			t.Errorf("sizes %d and %d differ by %.1f%% (<10%%, violating Eq. 4)", i-1, i, gap*100)
		}
	}
	if sizes[0] != 8*1024 || math.Abs(sizes[9]-56*1024) > 1 {
		t.Errorf("size endpoints wrong: %v .. %v", sizes[0], sizes[9])
	}
}

func TestTrainingSizesDegenerate(t *testing.T) {
	tuner, _ := testTuner(t)
	sizes := tuner.TrainingSizesMB(1024, 1024)
	if len(sizes) != 1 || sizes[0] != 1024 {
		t.Fatalf("degenerate range gave %v", sizes)
	}
}

func TestCollectShapesAndDeterminism(t *testing.T) {
	tuner, _ := testTuner(t)
	sizes := tuner.TrainingSizesMB(10*1024, 50*1024)
	set, ov, err := tuner.Collect(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != tuner.Opt.NTrain {
		t.Fatalf("collected %d vectors, want %d", set.Len(), tuner.Opt.NTrain)
	}
	if ov.CollectClusterHours <= 0 {
		t.Error("collecting cluster hours not accounted")
	}
	ref, refOv := serialCollect(t, tuner, sizes)
	for i := range set.Vectors {
		if set.Vectors[i].TimeSec != ref.Vectors[i].TimeSec {
			t.Fatal("concurrent Collect differs from the serial oracle")
		}
	}
	if ov.CollectClusterHours != refOv.CollectClusterHours {
		t.Fatalf("cluster-hours %v, serial oracle %v", ov.CollectClusterHours, refOv.CollectClusterHours)
	}
	if _, _, err := tuner.Collect(nil); err == nil {
		t.Error("empty size list should fail")
	}
}

func TestEndToEndTuneBeatsDefault(t *testing.T) {
	tuner, w := testTuner(t)
	target := w.InputMB(30)
	res, err := tuner.Tune(w.InputMB(10), w.InputMB(50), []float64{target})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best[target]
	if !ok {
		t.Fatal("no configuration for the target size")
	}
	if res.PredictedSec[target] <= 0 {
		t.Error("non-positive prediction")
	}
	// Measure against the default on a fresh simulator.
	evalSim := sparksim.New(cluster.Standard(), 101)
	tDAC := evalSim.Run(&w.Program, target, best).TotalSec
	tDef := evalSim.Run(&w.Program, target, conf.StandardSpace().Default()).TotalSec
	if tDAC >= tDef {
		t.Fatalf("DAC (%.1fs) did not beat the default (%.1fs)", tDAC, tDef)
	}
	if res.Overhead.ModelTrainSec <= 0 || res.Overhead.SearchSec <= 0 {
		t.Error("overhead accounting missing")
	}
}

func TestSearchUsesDatasize(t *testing.T) {
	// A model that punishes high parallelism only for big inputs: the
	// search must return different configurations for the two sizes.
	tuner, _ := testTuner(t)
	parIdx, _ := tuner.Space.Index(conf.DefaultParallelism)
	m := predictorFunc(func(x []float64) float64 {
		par := x[parIdx]
		dsize := x[len(x)-1]
		if dsize > 5000 {
			return 100 + par // big input: low parallelism wins
		}
		return 200 - par // small input: high parallelism wins
	})
	cfgSmall, _, _, _, err := tuner.Search(m, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgBig, _, _, _, err := tuner.Search(m, 50000, nil)
	if err != nil {
		t.Fatal(err)
	}
	small := cfgSmall.Get(conf.DefaultParallelism)
	big := cfgBig.Get(conf.DefaultParallelism)
	if small <= big {
		t.Fatalf("datasize-aware search failed: par(small)=%v <= par(big)=%v", small, big)
	}
}

type predictorFunc func(x []float64) float64

func (f predictorFunc) Predict(x []float64) float64 { return f(x) }

// uncertainPredictor pairs a mean with a dispersion that grows with one
// parameter, letting the test confirm the robust objective is in force.
type uncertainPredictor struct{ parIdx int }

func (u uncertainPredictor) Predict(x []float64) float64 { return 100 - x[u.parIdx] }
func (u uncertainPredictor) PredictWithUncertainty(x []float64) (float64, float64) {
	// High parallelism looks fastest but is maximally uncertain.
	return u.Predict(x), 10 * x[u.parIdx]
}

func TestRobustSearchPenalizesUncertainty(t *testing.T) {
	tuner, _ := testTuner(t)
	parIdx, _ := tuner.Space.Index(conf.DefaultParallelism)
	m := uncertainPredictor{parIdx: parIdx}

	plainCfg, _, _, _, err := tuner.Search(m, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuner.Opt.RobustSearch = true
	robustCfg, _, _, _, err := tuner.Search(m, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := plainCfg.Get(conf.DefaultParallelism)
	robust := robustCfg.Get(conf.DefaultParallelism)
	if plain != 50 {
		t.Fatalf("plain search should chase the optimistic corner (par=50), got %v", plain)
	}
	if robust >= plain {
		t.Fatalf("robust search should back off the uncertain corner: par %v >= %v", robust, plain)
	}
}

func TestTuneWithRobustSearchEndToEnd(t *testing.T) {
	tuner, w := testTuner(t)
	tuner.Opt.RobustSearch = true
	target := w.InputMB(30)
	res, err := tuner.Tune(w.InputMB(10), w.InputMB(50), []float64{target})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Best[target]; !ok {
		t.Fatal("no configuration produced under robust search")
	}
}

func TestRFHOCTuneProducesLegalConfig(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	tuner := &RFHOCTuner{
		Space: conf.StandardSpace(),
		Exec: ExecutorFunc(func(cfg conf.Config, dsizeMB float64) float64 {
			return sim.Run(&w.Program, dsizeMB, cfg).TotalSec
		}),
		Opt: Options{
			NTrain: 200,
			GA:     ga.Options{PopSize: 20, Generations: 10},
			Seed:   2,
		},
	}
	cfg, err := tuner.Tune(w.InputMB(10), w.InputMB(50))
	if err != nil {
		t.Fatal(err)
	}
	space := conf.StandardSpace()
	for i := 0; i < space.Len(); i++ {
		p := space.Param(i)
		if v := cfg.At(i); v < p.Min || v > p.Max {
			t.Errorf("%s = %v outside range", p.Name, v)
		}
	}
}

func TestCollectRejectsBadExecutor(t *testing.T) {
	tuner, _ := testTuner(t)
	tuner.Opt.NTrain = 5
	tuner.Exec = ExecutorFunc(func(conf.Config, float64) float64 { return -1 })
	if _, _, err := tuner.Collect([]float64{1024}); err == nil {
		t.Fatal("negative execution times should be rejected")
	}
	tuner.Exec = ExecutorFunc(func(conf.Config, float64) float64 { return math.NaN() })
	if _, _, err := tuner.Collect([]float64{1024}); err == nil {
		t.Fatal("NaN execution times should be rejected")
	}
}

func TestModelAccuracyReasonable(t *testing.T) {
	tuner, w := testTuner(t)
	tuner.Opt.NTrain = 600
	sizes := tuner.TrainingSizesMB(w.InputMB(10), w.InputMB(50))
	set, _, err := tuner.Collect(sizes)
	if err != nil {
		t.Fatal(err)
	}
	m, ov, err := tuner.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	if ov.ModelTrainSec <= 0 {
		t.Error("model training time not measured")
	}
	// Held-out data from a different collection seed.
	tuner.Opt.Seed = 77
	test, _, err := tuner.Collect(sizes)
	if err != nil {
		t.Fatal(err)
	}
	// 600 samples against a cliff-heavy 42-dimensional surface: this is a
	// sanity bound, not an accuracy claim (the accuracy experiments use
	// the paper-scale 2000 samples).
	e := model.Evaluate(m, test.ToDataset())
	if e.Mean > 0.60 {
		t.Errorf("mean error %.1f%% unreasonably high for a smoke model", e.Mean*100)
	}
}
