package hm

import (
	"math/rand"
	"testing"

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

// BenchmarkPredictBatch compares per-row model queries against the
// tree-at-a-time batch path over one GA population (100 individuals) —
// the searching component's unit of work.
func BenchmarkPredictBatch(b *testing.B) {
	ds := synthDS(1000, 2)
	m, err := Train(ds, Options{Trees: 600, LearningRate: 0.05, TreeComplexity: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rows := ds.Features[:100]
	out := make([]float64, len(rows))
	b.Run("perrow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, x := range rows {
				out[r] = m.Predict(x)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.PredictBatch(rows, out)
		}
	})
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
