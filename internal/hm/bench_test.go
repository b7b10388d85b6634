package hm

import (
	"math/rand"
	"testing"

	"repro/internal/conf"
	"repro/internal/ga"
	"repro/internal/model"
)

// benchDS builds a paper-scale synthetic dataset: d features (the paper
// tunes 41 configuration parameters + data size) with a nonlinear target
// over a handful of them.
func benchDS(n, d int, seed int64) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset(nil)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		t := 10 + 5*x[0] + x[1]*x[2] + 2*x[d/2]
		if x[0] > 7 {
			t *= 3
		}
		ds.Add(x, t*(1+0.02*rng.NormFloat64()))
	}
	return ds
}

// BenchmarkHMFit measures one paper-scale HM fit (2000 samples × 42
// features) serially (Workers=1) and with the default worker count
// (concurrent first-order fits, parallel histogram builds). Both produce
// bit-identical models (see batch_test.go), so the early-stopping round
// is the same and the ratio is a pure throughput comparison.
func BenchmarkHMFit(b *testing.B) {
	ds := benchDS(2000, 42, 1)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		opt := Options{Trees: 600, LearningRate: 0.05, TreeComplexity: 5, Seed: 1,
			TargetAccuracy: 0.999, Workers: bc.workers}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Train(ds, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gaBlocks trains a paper-budget model on n random configurations of the
// 41-parameter Spark space plus a dsize column, then runs a short GA
// search against it — seeded, as core's search is, with training
// configurations — and records every block the search asks the model to
// score. Converging populations make those blocks far more alike than
// random rows, which is what a walk's branch predictor feeds on.
func gaBlocks(b *testing.B, n int) (*Model, [][]float64, [][][]float64) {
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(7))
	ds := model.NewDataset(nil)
	var seeds [][]float64
	for i := 0; i < n; i++ {
		cfg := space.Random(rng).Vector()
		dsize := 100 + rng.Float64()*900
		u := func(j int) float64 { p := space.Param(j); return (cfg[j] - p.Min) / p.Span() }
		t := dsize * (1 + 2*u(0) + u(1)*u(2) + 0.5*u(7))
		if u(3) < 0.2 {
			t *= 3 // a cliff, like an OOM boundary
		}
		ds.Add(append(cfg, dsize), t*(1+0.05*rng.NormFloat64()))
		if len(seeds) < 100 {
			seeds = append(seeds, cfg)
		}
	}
	// Noise keeps the paper's 0.90 target out of reach, so boosting runs
	// to convergence and the model is paper-sized (thousands of trees).
	m, err := Train(ds, Options{Trees: 3600, LearningRate: 0.05, TreeComplexity: 5, TargetAccuracy: 0.99, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var blocks [][][]float64
	obj := func(X [][]float64, out []float64) {
		rows := make([][]float64, len(X))
		for i, x := range X {
			rows[i] = append(append([]float64(nil), x...), 500)
		}
		blocks = append(blocks, rows)
		m.PredictBatch(rows, out)
	}
	ga.Minimize(space, obj, seeds, ga.Options{Generations: 40, Workers: 1, Seed: 3})
	return m, ds.Features[:100], blocks
}

// BenchmarkPredictBatch scores GA-population-sized blocks through the
// compiled kernel (PredictBatch) and through the pointer walk it
// replaced, kept as the test oracle: "random" is 100 random training
// rows, "ga-block" every block a short GA search against the same
// paper-budget model asked it to score.
func BenchmarkPredictBatch(b *testing.B) {
	m, random, blocks := gaBlocks(b, 2000)
	rows := 0
	for _, blk := range blocks {
		rows += len(blk)
	}
	b.Logf("model: %d trees; ga-block: %d blocks, %d rows", m.NumTrees(), len(blocks), rows)
	out := make([]float64, 100)
	for _, arm := range []struct {
		name   string
		blocks [][][]float64
	}{{"random", [][][]float64{random}}, {"ga-block", blocks}} {
		for _, scorer := range []struct {
			name  string
			score func(X [][]float64, out []float64)
		}{
			{"walk", func(X [][]float64, out []float64) { walkPredictBatch(m, X, out) }},
			{"kernel", m.PredictBatch},
		} {
			b.Run(arm.name+"/"+scorer.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, blk := range arm.blocks {
						scorer.score(blk, out)
					}
				}
			})
		}
	}
}

// BenchmarkTrainPaperScale measures fitting one HM model with the paper's
// tuned hyperparameters (tc=5, lr=0.05, nt up to 3600, early-stopped) on a
// 2000-sample set — Table 3's "modeling" column.
func BenchmarkTrainPaperScale(b *testing.B) {
	ds := synthDS(2000, 1)
	opt := Options{Trees: 3600, LearningRate: 0.05, TreeComplexity: 5, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var m *Model
	for i := 0; i < b.N; i++ {
		var err error
		m, err = Train(ds, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.NumTrees()), "trees")
}

// BenchmarkPredict measures one model query — the GA performs ~10,000 of
// these per search.
func BenchmarkPredict(b *testing.B) {
	ds := synthDS(1000, 2)
	m, err := Train(ds, Options{Trees: 600, LearningRate: 0.05, TreeComplexity: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := ds.Features[3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}

// BenchmarkTrajectory measures the Fig. 8 curve generation.
func BenchmarkTrajectory(b *testing.B) {
	ds := synthDS(1000, 3)
	opt := Options{LearningRate: 0.05, TreeComplexity: 5, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Trajectory(ds, opt, []int{100, 400, 800}); err != nil {
			b.Fatal(err)
		}
	}
}
