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
// predictions tree-at-a-time through the compiled kernel (compiled.go)
// over rows encoded once against the builder's bin edges, and split
// finding fans out across features inside internal/tree.
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
	// TreeComplexity is tc, split nodes per tree: 1 to 5 (the compiled
	// kernel holds five condition slots per tree); larger values are
	// rejected.
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

// QuickOptions is the reduced smoke-test budget: 120 trees per
// first-order model at lr 0.1 and tc 5. Backend trains with it under
// model.TrainOpts.Quick, and the tuning pipeline's quick budget uses it
// too, so a quick train job and a quick tune fit with the same Options.
func QuickOptions() Options {
	return Options{Trees: 120, LearningRate: 0.1, TreeComplexity: 5}
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

// check rejects options the compiled kernel cannot score.
func (o Options) check() error {
	if o.TreeComplexity > maxSplits {
		return fmt.Errorf("hm: tree complexity %d, want 1..%d", o.TreeComplexity, maxSplits)
	}
	return nil
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

// Model is a trained HM model: a coefficient blend of first-order models
// (a single first-order model has one coefficient of 1). It implements
// model.Model, predicting execution time in seconds.
type Model struct {
	subs  []*firstOrder
	coefs []float64
	log   bool
	// ens is the compiled form every prediction runs through, rebuilt
	// at the end of Train, Resume and Load so it is never stale.
	ens ensemble
	// Order is the hierarchical order reached (1 = first-order).
	Order int
	// ValErr is the mean Eq. 2 validation error at the end of training.
	ValErr float64
}

// Predict returns the predicted execution time in seconds.
func (m *Model) Predict(x []float64) float64 {
	var out [1]float64
	m.PredictBatch([][]float64{x}, out[:])
	return out[0]
}

// PredictBatch writes the predicted execution time for every row of X
// into out (len(out) must be at least len(X)). The block is encoded once
// into the model's code space and every compiled tree scores all of it
// before the next (compiled.go), so the call allocates a fixed number of
// buffers and nothing per row. Results are bit-identical to calling
// Predict per row, and the method is safe for concurrent use (the model
// is read-only).
func (m *Model) PredictBatch(X [][]float64, out []float64) {
	b := m.ens.space.encode(X)
	tmp := make([]float64, len(X))
	out = out[:len(X)]
	for i := range out {
		out[i] = 0
	}
	for j := range m.ens.subs {
		m.ens.predictSub(&b, j, tmp)
		c := m.coefs[j]
		for i := range out {
			out[i] += c * tmp[i]
		}
	}
	if m.log {
		for i := range out {
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
	if err := opt.check(); err != nil {
		return nil, err
	}
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

	m := &Model{log: !opt.NoLogTarget, Order: 1}
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
		if err := tr.blend(m); err != nil {
			abort.Store(true)
			return nil, err
		}
		m.Order = order
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
	// space is the builder's bin edges as a code space, and trainB/valB
	// the train and validation rows encoded into it once, so every
	// boosting round scores its fresh tree through the compiled kernel.
	space  codeSpace
	trainB block
	valB   block
}

func newTrainer(trainDS, valDS *model.Dataset, opt Options) *trainer {
	t := &trainer{
		opt:     opt,
		builder: tree.NewBuilder(trainDS.Features),
		train:   trainDS, val: valDS,
		yFit: make([]float64, trainDS.Len()),
	}
	t.space = edgeSpace(t.builder.Edges())
	t.trainB = t.space.encode(trainDS.Features)
	t.valB = t.space.encode(valDS.Features)
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
	idx := make([]int, n) // the round's bootstrap sample; Grow keeps no reference
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
		model.BootstrapInto(idx, rng)
		tr := t.builder.Grow(resid, idx, gOpt, rng)
		fo.trees = append(fo.trees, tr)
		grown++
		t.update(tr, fo.lr, pred, valPred)
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

// update adds lr × the freshly grown tree tr to the train and validation
// predictions — one boosting round's update, through the compiled kernel
// over the rows encoded against the builder's edges.
func (t *trainer) update(tr *tree.Tree, lr float64, pred, valPred []float64) {
	c, err := t.space.compileTree(tr)
	if err != nil {
		// Options.check caps MaxSplits at maxSplits before any growth.
		panic(err)
	}
	one := []ctree{c}
	accumulate(one, &t.trainB, lr, pred)
	accumulate(one, &t.valB, lr, valPred)
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

// blend recompiles m and refits its coefficients and ValErr on the
// validation split (in fit space): the least-squares blend of the
// sub-models' predictions, {1} for a single sub-model.
func (t *trainer) blend(m *Model) error {
	ens, err := compile(m.subs)
	if err != nil {
		return err
	}
	m.ens = ens
	b := ens.space.encode(t.val.Features)
	preds := make([][]float64, len(m.subs))
	for j := range preds {
		preds[j] = make([]float64, b.n)
		ens.predictSub(&b, j, preds[j])
	}
	m.coefs = t.fitCoefs(preds)
	acc := make([]float64, b.n)
	for j, p := range preds {
		for i := range acc {
			acc[i] += m.coefs[j] * p[i]
		}
	}
	m.ValErr = t.relErr(acc)
	return nil
}

// fitCoefs solves the least-squares blend of the sub-models' validation
// predictions preds[j][i]. With one sub-model it returns {1}.
func (t *trainer) fitCoefs(preds [][]float64) []float64 {
	k := len(preds)
	if k == 1 {
		return []float64{1}
	}
	// Normal equations A a = b over validation predictions.
	A := make([][]float64, k)
	b := make([]float64, k)
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
