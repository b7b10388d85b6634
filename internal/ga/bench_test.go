package ga

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/conf"
	"repro/internal/hm"
	"repro/internal/model"
)

// benchModel lazily trains one HM model over the standard configuration
// space — the objective a real DAC search minimizes.
var benchModel = sync.OnceValue(func() *hm.Model {
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(1))
	ds := model.NewDataset(nil)
	for i := 0; i < 1200; i++ {
		x := space.Random(rng).Vector()
		t := 20 + 3*x[0] + x[1]*0.5
		for _, v := range x {
			t += 0.01 * v
		}
		ds.Add(x, t*(1+0.05*rng.NormFloat64()))
	}
	// The paper's model budget (nt=3600, hierarchical order up to 2) with
	// early stopping defeated: the searcher must pay the full ensemble on
	// every prediction, as it does for real Spark programs whose accuracy
	// never rounds to 100%.
	m, err := hm.Train(ds, hm.Options{Trees: 3600, LearningRate: 0.05, TreeComplexity: 5,
		TargetAccuracy: 0.999, ConvergeWindow: 4000, Seed: 1})
	if err != nil {
		panic(err)
	}
	return m
})

// BenchmarkGASearch measures one full paper-setup search (popSize 100 ×
// 100 generations) against a trained HM model — the searching column of
// Table 3. The serial leg makes per-row Predict calls on one worker;
// the parallel leg is the pipeline's shape: tree-at-a-time batch
// prediction and worker-pool evaluation. Both legs memoize genomes and
// return identical results (see batch_test.go).
func BenchmarkGASearch(b *testing.B) {
	space := conf.StandardSpace()
	m := benchModel()
	for _, bc := range []struct {
		name    string
		obj     Objective
		workers int
	}{
		{"serial", Scalar(m.Predict), 1},
		{"parallel", m.PredictBatch, 0},
	} {
		opt := Options{PopSize: 100, Generations: 100, Seed: 1, Workers: bc.workers}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var last Result
			for i := 0; i < b.N; i++ {
				last = Minimize(space, bc.obj, nil, opt)
			}
			b.ReportMetric(float64(last.Evaluations), "evals")
			b.ReportMetric(float64(last.CacheHits), "hits")
		})
	}
}

// BenchmarkMinimizePaperScale measures one full GA search with the paper's
// settings (popSize 100 × 100 generations) over a cheap objective —
// isolating the GA machinery from model prediction cost.
func BenchmarkMinimizePaperScale(b *testing.B) {
	space := conf.StandardSpace()
	obj := sphere(space)
	opt := Options{PopSize: 100, Generations: 100, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Minimize(space, Scalar(obj), nil, opt)
	}
}

// BenchmarkGeneration measures a single small generation.
func BenchmarkGeneration(b *testing.B) {
	space := conf.StandardSpace()
	obj := sphere(space)
	opt := Options{PopSize: 50, Generations: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		Minimize(space, Scalar(obj), nil, opt)
	}
}
