// Package rf implements random-forest regression — the modeling technique
// of RFHOC [4], the state-of-the-art Hadoop auto-tuner the paper
// reimplements on Spark as its strongest baseline (§5.6): bagged deep
// regression trees with per-split feature subsampling, averaged.
package rf

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/tree"
)

// Options are the forest hyperparameters; the zero value selects 200 trees
// of up to 127 splits with sqrt-fraction feature sampling.
type Options struct {
	// Trees is the forest size.
	Trees int
	// MaxSplits bounds each tree's split count (deep by default).
	MaxSplits int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// FeatureFrac is the per-split feature sampling fraction; 0 selects
	// 1/3, the standard regression-forest default.
	FeatureFrac float64
	// NoLogTarget disables fitting log execution time.
	NoLogTarget bool
	// Workers bounds how many trees grow concurrently (0 = GOMAXPROCS,
	// 1 = serial). Each tree's randomness derives from (Seed, tree index)
	// alone, so the trained forest is identical for any value.
	Workers int
	// Seed drives bagging and feature sampling.
	Seed int64
}

// workers resolves the effective training parallelism. The default is
// capped at NumCPU as well as GOMAXPROCS: tree growing is purely
// CPU-bound, so running more growers than physical CPUs (a common state
// in CPU-quota containers where GOMAXPROCS exceeds the quota) only adds
// scheduler churn. Results are identical for any worker count — seeds
// are pre-assigned per tree — so the cap is purely a speed matter.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < w {
		w = n
	}
	return w
}

func (o Options) withDefaults() Options {
	if o.Trees <= 0 {
		o.Trees = 200
	}
	if o.MaxSplits <= 0 {
		o.MaxSplits = 127
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 3
	}
	if o.FeatureFrac <= 0 {
		o.FeatureFrac = 1.0 / 3
	}
	return o
}

// Forest is a trained random forest implementing model.Model.
type Forest struct {
	trees []*tree.Tree
	log   bool
}

// Predict averages the trees (in fit space) and returns seconds.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range f.trees {
		sum += t.Predict(x)
	}
	v := sum / float64(len(f.trees))
	if f.log {
		return math.Exp(v)
	}
	return v
}

// PredictBatch writes the predicted execution time for every row of X
// into out (len(out) must be at least len(X)), accumulating
// tree-at-a-time so each tree's node arrays stay hot in cache across the
// whole batch — the evaluation order the GA's population scoring uses.
// Results are bit-identical to calling Predict per row, and the method is
// safe for concurrent use (the forest is read-only).
func (f *Forest) PredictBatch(X [][]float64, out []float64) {
	for i := range X {
		out[i] = 0
	}
	if len(f.trees) == 0 {
		return
	}
	for _, t := range f.trees {
		t.AccumulateBatch(X, 1, out)
	}
	inv := float64(len(f.trees))
	for i := range X {
		out[i] = out[i] / inv
		if f.log {
			out[i] = math.Exp(out[i])
		}
	}
}

// NumTrees returns the forest size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// FeatureImportance returns the per-feature split gains summed over the
// forest, normalized to sum to 1 (nil for an empty forest).
func (f *Forest) FeatureImportance() []float64 {
	var imp []float64
	for _, t := range f.trees {
		g := t.Gains()
		if g == nil {
			continue
		}
		if imp == nil {
			imp = make([]float64, len(g))
		}
		for i, v := range g {
			imp[i] += v
		}
	}
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// Train fits a random forest to ds.
func Train(ds *model.Dataset, opt Options) (*Forest, error) {
	opt = opt.withDefaults()
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("rf: %w", err)
	}
	n := ds.Len()
	if n < 5 {
		return nil, fmt.Errorf("rf: %d samples is too few", n)
	}
	y := make([]float64, n)
	for i, t := range ds.Targets {
		if opt.NoLogTarget {
			y[i] = t
		} else {
			y[i] = math.Log(math.Max(1e-9, t))
		}
	}
	// One independent seed per tree, drawn up front: a tree's bootstrap
	// sample and feature draws depend only on (Seed, tree index), so trees
	// can grow concurrently into their slots while matching the serial
	// forest exactly.
	rng := rand.New(rand.NewSource(opt.Seed))
	seeds := make([]int64, opt.Trees)
	for k := range seeds {
		seeds[k] = rng.Int63()
	}
	builder := tree.NewBuilder(ds.Features)
	gOpt := tree.Options{MaxSplits: opt.MaxSplits, MinLeaf: opt.MinLeaf, FeatureFrac: opt.FeatureFrac}
	f := &Forest{log: !opt.NoLogTarget, trees: make([]*tree.Tree, opt.Trees)}
	grow := func(k int) {
		trng := rand.New(rand.NewSource(seeds[k]))
		idx := model.Bootstrap(n, trng)
		f.trees[k] = builder.Grow(y, idx, gOpt, trng)
	}
	workers := opt.workers()
	if workers > opt.Trees {
		workers = opt.Trees
	}
	if workers <= 1 {
		for k := range f.trees {
			grow(k)
		}
		return f, nil
	}
	// Deep forest trees dominate their own split scans, so parallelism
	// lives at the tree level: a worker pool drains the slot counter and
	// each tree lands in its fixed slot regardless of scheduling.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= opt.Trees {
					return
				}
				grow(k)
			}
		}()
	}
	wg.Wait()
	return f, nil
}
