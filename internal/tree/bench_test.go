package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/conf"
	"repro/internal/ga"
	"repro/internal/model"
)

func benchData(n, d int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Float64() * 100
		}
		y[i] = X[i][0] + X[i][1]*X[i][2%d]
	}
	return X, y
}

// BenchmarkNewBuilder measures the one-time binning cost for a
// paper-scale design matrix (2000 x 42).
func BenchmarkNewBuilder(b *testing.B) {
	X, _ := benchData(2000, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewBuilder(X)
	}
}

// bootSamples returns k seeded bootstrap samples of n rows, drawn by
// model.Bootstrap — the samples hm and rf grow every tree on.
func bootSamples(n, k int) [][]int {
	rng := rand.New(rand.NewSource(3))
	out := make([][]int, k)
	for i := range out {
		out[i] = model.Bootstrap(n, rng)
	}
	return out
}

// BenchmarkGrowTC5 measures growing one boosting sub-model (tc=5) on a
// bootstrap sample, the inner loop of HM's FirstOrderProcedure executed
// nt=3600 times.
func BenchmarkGrowTC5(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	samples := bootSamples(2000, 16)
	opt := Options{MaxSplits: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Grow(y, samples[i%len(samples)], opt, nil)
	}
}

// BenchmarkGrowTC5Exact is BenchmarkGrowTC5 on the exact oracle
// (exactGrow) — the baseline the sibling-subtraction fast path must
// beat (guarded in CI).
func BenchmarkGrowTC5Exact(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	samples := bootSamples(2000, 16)
	opt := Options{MaxSplits: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactGrow(builder, y, samples[i%len(samples)], opt, nil)
	}
}

// BenchmarkGrowDeep measures growing one random-forest tree (127 splits,
// feature-sampled) on a bootstrap sample.
func BenchmarkGrowDeep(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	samples := bootSamples(2000, 16)
	rng := rand.New(rand.NewSource(2))
	opt := Options{MaxSplits: 127, FeatureFrac: 1.0 / 3, MinLeaf: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Grow(y, samples[i%len(samples)], opt, rng)
	}
}

// BenchmarkPredict measures a single-tree prediction.
func BenchmarkPredict(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	tr := builder.Grow(y, allIdx(2000), Options{MaxSplits: 5}, nil)
	x := X[7]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Predict(x)
	}
}

// gaBlocks runs a short GA search over a space of d Float parameters in
// [0, 100] — benchData's feature range — minimizing tr, and records
// every block the search asks it to score. Converging populations make
// those blocks far more alike than random rows.
func gaBlocks(b *testing.B, tr *Tree, d int) [][][]float64 {
	params := make([]conf.Param, d)
	for j := range params {
		params[j] = conf.Param{Name: fmt.Sprintf("x%d", j), Kind: conf.Float, Max: 100}
	}
	space, err := conf.NewSpace(params)
	if err != nil {
		b.Fatal(err)
	}
	var blocks [][][]float64
	obj := func(X [][]float64, out []float64) {
		rows := make([][]float64, len(X))
		for i, x := range X {
			rows[i] = append([]float64(nil), x...)
			out[i] = 0
		}
		blocks = append(blocks, rows)
		tr.AccumulateBatch(rows, 1, out)
	}
	ga.Minimize(space, obj, nil, ga.Options{Generations: 40, Workers: 1, Seed: 3})
	return blocks
}

// BenchmarkPredictBatch compares per-row prediction against the
// tree-at-a-time batch path (AccumulateBatch, the walk random forests
// run) over 100 random rows ("random") and over every block a short GA
// search asked the tree to score ("ga-block").
func BenchmarkPredictBatch(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	tr := builder.Grow(y, allIdx(2000), Options{MaxSplits: 5}, nil)
	out := make([]float64, 100)
	for _, arm := range []struct {
		name   string
		blocks [][][]float64
	}{{"random", [][][]float64{X[:100]}}, {"ga-block", gaBlocks(b, tr, 42)}} {
		b.Run(arm.name+"/perrow", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, rows := range arm.blocks {
					for r, x := range rows {
						out[r] = tr.Predict(x)
					}
				}
			}
		})
		b.Run(arm.name+"/batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, rows := range arm.blocks {
					tr.AccumulateBatch(rows, 1, out)
				}
			}
		})
	}
}

// BenchmarkGrowParallel measures the parallel split scan against the
// serial one at HM's paper-scale node size (2000 rows × 42 features),
// on bootstrap samples.
func BenchmarkGrowParallel(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	samples := bootSamples(2000, 16)
	for _, workers := range []int{1, 4} {
		opt := Options{MaxSplits: 5, Workers: workers}
		b.Run(map[bool]string{true: "serial", false: "parallel"}[workers == 1], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				builder.Grow(y, samples[i%len(samples)], opt, nil)
			}
		})
	}
}
