// Package hm implements the paper's Hierarchical Modeling (HM, §3.2,
// Algorithm 1): execution time is predicted by the cooperation of many
// simple sub-models rather than one sophisticated model.
//
// FirstOrderProcedure is stochastic gradient boosting: regression trees of
// complexity tc are grown on bootstrap samples of the residuals and added
// with shrinkage lr, up to nt trees or convergence. If the first-order
// model misses the target accuracy after converging, additional converged
// first-order models are built (with fresh randomness) and hierarchically
// blended; the paper weights sub-models by coefficients "corresponding to
// learning rate", which we instantiate as the least-squares coefficients
// on a held-out validation split — the choice that makes the blend an
// improvement by construction.
//
// Training is batched and parallel: each first-order model's randomness
// is derived from (Seed, order) alone, so candidate orders fit
// concurrently under Workers > 1 while producing exactly the model a
// serial run would; the boosting inner loop updates train/validation
// predictions tree-at-a-time over pre-binned rows (tree.AccumulateBinned)
// instead of row-at-a-time, and split finding fans out across features
// inside internal/tree.
package hm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tree"
)

// Options are HM's hyperparameters; the zero value selects the paper's
// tuned settings (§5.2): tc=5, lr=0.05, nt=3600.
type Options struct {
	// Trees is nt, the sub-model budget of one first-order model.
	Trees int
	// LearningRate is lr, the shrinkage per sub-model.
	LearningRate float64
	// TreeComplexity is tc, split nodes per tree.
	TreeComplexity int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// TargetAccuracy stops model building once validation accuracy
	// (1 - mean Eq. 2 error) reaches it. Default 0.90.
	TargetAccuracy float64
	// MaxOrder bounds the hierarchical recursion depth; order k blends
	// up to k converged first-order models. Default 2.
	MaxOrder int
	// ValFrac is the fraction of the training set held out to measure
	// accuracy and convergence. Default 0.2.
	ValFrac float64
	// ConvergeWindow is the number of trees without validation
	// improvement after which a first-order model is converged.
	// Default 300.
	ConvergeWindow int
	// LogTarget fits log execution time (recommended: times span
	// orders of magnitude). Default true for the zero value.
	NoLogTarget bool
	// Workers bounds training parallelism: concurrent first-order fits
	// and the split-scan fan-out inside tree growth (0 = GOMAXPROCS,
	// 1 = fully serial). The trained model is identical for any value.
	Workers int
	// Seed drives bootstrapping and the train/validation split.
	Seed int64
	// Obs, when non-nil, receives training metrics: trees grown,
	// boosting rounds, orders built, and fit wall-clock ("hm.*" and
	// "tree.*" names). It is never serialized with the model.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Trees <= 0 {
		o.Trees = 3600
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.05
	}
	if o.TreeComplexity <= 0 {
		o.TreeComplexity = 5
	}
	if o.TargetAccuracy <= 0 {
		o.TargetAccuracy = 0.90
	}
	if o.MaxOrder <= 0 {
		o.MaxOrder = 2
	}
	if o.ValFrac <= 0 || o.ValFrac >= 1 {
		o.ValFrac = 0.2
	}
	if o.ConvergeWindow <= 0 {
		o.ConvergeWindow = 300
	}
	return o
}

// workers resolves the effective training parallelism. The default is
// capped at NumCPU as well as GOMAXPROCS: CPU-bound fits and split
// scans gain nothing from more goroutines than physical CPUs (a common
// state in CPU-quota containers where GOMAXPROCS exceeds the quota).
// The trained model is identical for any worker count, so the cap is
// purely a speed matter.
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

// firstOrder is one boosted-tree model: base + lr·Σ trees.
type firstOrder struct {
	base  float64
	lr    float64
	trees []*tree.Tree
}

func (f *firstOrder) predict(x []float64) float64 {
	v := f.base
	for _, t := range f.trees {
		v += f.lr * t.Predict(x)
	}
	return v
}

// predictBatch writes the fit-space prediction for every row of X into
// out, accumulating tree-at-a-time. Bit-identical to predict per row.
func (f *firstOrder) predictBatch(X [][]float64, out []float64) {
	for i := range out {
		out[i] = f.base
	}
	for _, t := range f.trees {
		t.AccumulateBatch(X, f.lr, out)
	}
}

// Model is a trained HM model: a coefficient blend of first-order models
// (a single first-order model has one coefficient of 1). It implements
// model.Model, predicting execution time in seconds.
type Model struct {
	subs  []*firstOrder
	coefs []float64
	log   bool
	// edges, when non-nil, are the training Builder's per-feature
	// histogram bin edges. Together with the trees' bin codes they keep
	// the binned training path available after Save/Load: Resume encodes
	// new rows against them (tree.BinWithEdges) instead of requiring the
	// original Builder. Nil for models loaded from legacy (v1) snapshots
	// and for models whose binned form was invalidated (see Resume).
	edges [][]float64
	// Order is the hierarchical order reached (1 = first-order).
	Order int
	// ValErr is the mean Eq. 2 validation error at the end of training.
	ValErr float64
}

// Predict returns the predicted execution time in seconds.
func (m *Model) Predict(x []float64) float64 {
	v := 0.0
	for i, s := range m.subs {
		v += m.coefs[i] * s.predict(x)
	}
	if m.log {
		return math.Exp(v)
	}
	return v
}

// PredictBatch writes the predicted execution time for every row of X
// into out (len(out) must be at least len(X)). Each small boosted tree is
// evaluated over the whole batch before moving on, keeping its node
// arrays in cache — the layout the GA's population evaluation depends on.
// Results are bit-identical to calling Predict per row, and the method is
// safe for concurrent use (the model is read-only).
func (m *Model) PredictBatch(X [][]float64, out []float64) {
	tmp := make([]float64, len(X))
	for i := range X {
		out[i] = 0
	}
	for j, s := range m.subs {
		s.predictBatch(X, tmp)
		c := m.coefs[j]
		for i := range X {
			out[i] += c * tmp[i]
		}
	}
	if m.log {
		for i := range X {
			out[i] = math.Exp(out[i])
		}
	}
}

// NumTrees returns the total sub-model (tree) count across all orders.
func (m *Model) NumTrees() int {
	n := 0
	for _, s := range m.subs {
		n += len(s.trees)
	}
	return n
}

// Train fits an HM model to ds following Algorithm 1.
func Train(ds *model.Dataset, opt Options) (*Model, error) {
	opt = opt.withDefaults()
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("hm: %w", err)
	}
	if ds.Len() < 10 {
		return nil, fmt.Errorf("hm: %d samples is too few", ds.Len())
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(opt.Seed))
	trainDS, valDS := ds.Split(1-opt.ValFrac, rng)
	// One independent seed per candidate order, drawn up front: each
	// first-order model's randomness depends only on (Seed, order), so
	// fits can run concurrently — and unneeded ones can be discarded —
	// without changing any model that is kept.
	orderSeeds := make([]int64, opt.MaxOrder)
	for i := range orderSeeds {
		orderSeeds[i] = rng.Int63()
	}
	tr := newTrainer(trainDS, valDS, opt)

	// Speculative concurrent fits: when the blend needs order k, the
	// fits for orders 2..k were already running while order 1 was
	// evaluated. The abort flag reclaims the rare over-speculated fit —
	// but with a single scheduler core there is no idle parallelism to
	// win: the speculated fits time-slice against the fit that is
	// actually needed, so in the common case where the first candidate
	// already meets TargetAccuracy a full fit's worth of work has been
	// burned on the same core and thrown away. So speculation
	// additionally requires real parallelism (GOMAXPROCS > 1); otherwise
	// candidates fit strictly one at a time, on demand.
	var abort atomic.Bool
	var pending []chan *firstOrder
	if opt.workers() > 1 && opt.MaxOrder > 1 && runtime.GOMAXPROCS(0) > 1 {
		pending = make([]chan *firstOrder, opt.MaxOrder)
		for k := range pending {
			k := k
			ch := make(chan *firstOrder, 1)
			pending[k] = ch
			go func() {
				ch <- tr.firstOrderProcedure(rand.New(rand.NewSource(orderSeeds[k])), &abort)
			}()
		}
	}

	// The builder's bin edges travel with the model (and its snapshot)
	// so training can resume — binned — after Save/Load.
	m := &Model{log: !opt.NoLogTarget, Order: 1, edges: tr.builder.Edges()}
	// Algorithm 1 main loop: build first-order models until the target
	// accuracy is met or the order budget is exhausted.
	for order := 1; ; order++ {
		var fo *firstOrder
		if pending != nil {
			fo = <-pending[order-1]
		} else {
			fo = tr.firstOrderProcedure(rand.New(rand.NewSource(orderSeeds[order-1])), nil)
		}
		m.subs = append(m.subs, fo)
		m.coefs = tr.fitCoefs(m.subs)
		m.Order = order
		m.ValErr = tr.valError(m.subs, m.coefs)
		if 1-m.ValErr >= opt.TargetAccuracy || order >= opt.MaxOrder {
			abort.Store(true)
			opt.Obs.Counter("hm.fits").Inc()
			opt.Obs.Counter("hm.orders.built").Add(int64(m.Order))
			opt.Obs.Counter("hm.trees").Add(int64(m.NumTrees()))
			opt.Obs.Histogram("hm.fit.sec", nil).Observe(time.Since(start).Seconds())
			return m, nil
		}
	}
}

// trainer carries the shared state of one Train call. All fields are
// read-only after construction, so concurrent firstOrderProcedure calls
// may share one trainer.
type trainer struct {
	opt     Options
	builder *tree.Builder
	train   *model.Dataset
	val     *model.Dataset
	yFit    []float64 // training targets in fit space (log or raw)
	// trainBM/valBM are the train and validation rows pre-encoded into
	// the builder's bins, so every boosting round updates predictions by
	// walking the fresh tree over cached byte columns.
	trainBM *tree.BinMatrix
	valBM   *tree.BinMatrix
}

func newTrainer(trainDS, valDS *model.Dataset, opt Options) *trainer {
	t := &trainer{
		opt:     opt,
		builder: tree.NewBuilder(trainDS.Features),
		train:   trainDS, val: valDS,
		yFit: make([]float64, trainDS.Len()),
	}
	t.trainBM = t.builder.Binned()
	t.valBM = t.builder.Bin(valDS.Features)
	t.builder.Instrument(opt.Obs)
	for i, v := range trainDS.Targets {
		if opt.NoLogTarget {
			t.yFit[i] = v
		} else {
			t.yFit[i] = math.Log(math.Max(1e-9, v))
		}
	}
	return t
}

// firstOrderProcedure is Algorithm 1's FirstOrderProcedure: stochastic
// gradient boosting with bootstrap samples, early-stopped on target
// accuracy or convergence. rng must be private to this call; abort, when
// non-nil, lets Train cancel a speculative fit whose order turned out not
// to be needed (the partial result is discarded).
func (t *trainer) firstOrderProcedure(rng *rand.Rand, abort *atomic.Bool) *firstOrder {
	n := t.train.Len()
	fo := &firstOrder{lr: t.opt.LearningRate}
	sum := 0.0
	for _, v := range t.yFit {
		sum += v
	}
	fo.base = sum / float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = fo.base
	}
	valPred := make([]float64, t.val.Len())
	for i := range valPred {
		valPred[i] = fo.base
	}
	t.boost(fo, pred, valPred, t.opt.Trees, rng, abort)
	return fo
}

// boost runs up to budget stochastic-gradient-boosting rounds on fo,
// appending to fo.trees and advancing pred/valPred (fo's current fit-
// space predictions over the train and validation splits) in place. It
// stops early on target accuracy, convergence, or abort — the exact
// loop FirstOrderProcedure has always run, factored out so Resume can
// continue a persisted sub-model's trajectory from replayed predictions.
// Returns the number of trees grown.
func (t *trainer) boost(fo *firstOrder, pred, valPred []float64, budget int, rng *rand.Rand, abort *atomic.Bool) int {
	n := t.train.Len()
	resid := make([]float64, n)
	gOpt := tree.Options{MaxSplits: t.opt.TreeComplexity, MinLeaf: t.opt.MinLeaf, Workers: t.opt.workers()}

	grown := 0
	bestErr := math.Inf(1)
	sinceBest := 0
	const checkEvery = 10
	for k := 0; k < budget; k++ {
		if abort != nil && abort.Load() {
			break
		}
		for i := range resid {
			resid[i] = t.yFit[i] - pred[i]
		}
		idx := model.Bootstrap(n, rng)
		tr := t.builder.Grow(resid, idx, gOpt, rng)
		fo.trees = append(fo.trees, tr)
		grown++
		tr.AccumulateBinned(t.trainBM, fo.lr, pred)
		tr.AccumulateBinned(t.valBM, fo.lr, valPred)
		if (k+1)%checkEvery == 0 {
			e := t.relErr(valPred)
			if e < bestErr-1e-5 {
				bestErr = e
				sinceBest = 0
			} else {
				sinceBest += checkEvery
			}
			if 1-e >= t.opt.TargetAccuracy || sinceBest >= t.opt.ConvergeWindow {
				break
			}
		}
	}
	t.opt.Obs.Counter("hm.boost.rounds").Add(int64(grown))
	return grown
}

// relErr computes the mean Eq. 2 error of fit-space predictions against
// the validation targets.
func (t *trainer) relErr(valPred []float64) float64 {
	if len(valPred) == 0 {
		return 0
	}
	sum := 0.0
	for i, p := range valPred {
		if !t.opt.NoLogTarget {
			p = math.Exp(p)
		}
		sum += model.RelErr(p, t.val.Targets[i])
	}
	return sum / float64(len(valPred))
}

// fitCoefs solves the least-squares blend of the sub-models on the
// validation split (in fit space). With one sub-model it returns {1}.
func (t *trainer) fitCoefs(subs []*firstOrder) []float64 {
	k := len(subs)
	if k == 1 {
		return []float64{1}
	}
	// Normal equations A a = b over validation predictions.
	A := make([][]float64, k)
	b := make([]float64, k)
	preds := make([][]float64, k)
	for j, s := range subs {
		preds[j] = make([]float64, t.val.Len())
		s.predictBatch(t.val.Features, preds[j])
	}
	yv := make([]float64, t.val.Len())
	for i, v := range t.val.Targets {
		if t.opt.NoLogTarget {
			yv[i] = v
		} else {
			yv[i] = math.Log(math.Max(1e-9, v))
		}
	}
	for j := range A {
		A[j] = make([]float64, k)
		for l := range A[j] {
			for i := range yv {
				A[j][l] += preds[j][i] * preds[l][i]
			}
		}
		A[j][j] += 1e-6 // ridge for numerical safety
		for i := range yv {
			b[j] += preds[j][i] * yv[i]
		}
	}
	coefs, ok := solve(A, b)
	if !ok {
		// Degenerate system: fall back to a uniform blend.
		coefs = make([]float64, k)
		for j := range coefs {
			coefs[j] = 1 / float64(k)
		}
	}
	return coefs
}

// valError evaluates the blended model on the validation split.
func (t *trainer) valError(subs []*firstOrder, coefs []float64) float64 {
	if t.val.Len() == 0 {
		return 0
	}
	acc := make([]float64, t.val.Len())
	tmp := make([]float64, t.val.Len())
	for j, s := range subs {
		s.predictBatch(t.val.Features, tmp)
		for i := range acc {
			acc[i] += coefs[j] * tmp[i]
		}
	}
	sum := 0.0
	for i, p := range acc {
		if !t.opt.NoLogTarget {
			p = math.Exp(p)
		}
		sum += model.RelErr(p, t.val.Targets[i])
	}
	return sum / float64(len(t.val.Targets))
}

// solve performs Gaussian elimination with partial pivoting on the small
// dense system Ax=b, returning ok=false for singular systems.
func solve(A [][]float64, b []float64) ([]float64, bool) {
	n := len(A)
	M := make([][]float64, n)
	for i := range M {
		M[i] = append(append([]float64(nil), A[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(M[r][col]) > math.Abs(M[piv][col]) {
				piv = r
			}
		}
		if math.Abs(M[piv][col]) < 1e-12 {
			return nil, false
		}
		M[col], M[piv] = M[piv], M[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := M[r][col] / M[col][col]
			for c := col; c <= n; c++ {
				M[r][c] -= f * M[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = M[i][n] / M[i][i]
	}
	return x, true
}

// Trainer adapts Train to the model.Trainer interface.
type Trainer struct{ Opt Options }

// Name implements model.Trainer.
func (Trainer) Name() string { return "HM" }

// Train implements model.Trainer.
func (t Trainer) Train(ds *model.Dataset) (model.Model, error) {
	return Train(ds, t.Opt)
}
