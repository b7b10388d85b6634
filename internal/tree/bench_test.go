package tree

import (
	"math/rand"
	"testing"
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

// BenchmarkGrowTC5 measures growing one boosting sub-model (tc=5), the
// inner loop of HM's FirstOrderProcedure executed nt=3600 times.
func BenchmarkGrowTC5(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	idx := allIdx(2000)
	opt := Options{MaxSplits: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Grow(y, idx, opt, nil)
	}
}

// BenchmarkGrowTC5Exact is BenchmarkGrowTC5 on the exact oracle
// (exactGrow) — the baseline the sibling-subtraction fast path must
// beat (guarded in CI).
func BenchmarkGrowTC5Exact(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	idx := allIdx(2000)
	opt := Options{MaxSplits: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactGrow(builder, y, idx, opt, nil)
	}
}

// BenchmarkGrowDeep measures growing one random-forest tree (127 splits,
// feature-sampled).
func BenchmarkGrowDeep(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	idx := allIdx(2000)
	rng := rand.New(rand.NewSource(2))
	opt := Options{MaxSplits: 127, FeatureFrac: 1.0 / 3, MinLeaf: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Grow(y, idx, opt, rng)
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

// BenchmarkPredictBatch compares per-row prediction against the
// tree-at-a-time batch path over a GA-population-sized block of rows.
func BenchmarkPredictBatch(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	tr := builder.Grow(y, allIdx(2000), Options{MaxSplits: 5}, nil)
	rows := X[:100]
	out := make([]float64, len(rows))
	b.Run("perrow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, x := range rows {
				out[r] = tr.Predict(x)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.PredictBatch(rows, out)
		}
	})
}

// BenchmarkGrowParallel measures the parallel split scan against the
// serial one at HM's paper-scale node size (2000 rows × 42 features).
func BenchmarkGrowParallel(b *testing.B) {
	X, y := benchData(2000, 42)
	builder := NewBuilder(X)
	idx := allIdx(2000)
	for _, workers := range []int{1, 4} {
		opt := Options{MaxSplits: 5, Workers: workers}
		b.Run(map[bool]string{true: "serial", false: "parallel"}[workers == 1], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				builder.Grow(y, idx, opt, nil)
			}
		})
	}
}
