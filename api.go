package dac

import (
	"repro/internal/ann"
	"repro/internal/backends"
	"repro/internal/conf"
	"repro/internal/dataset"
	"repro/internal/ga"
	"repro/internal/hadoopsim"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/rf"
	"repro/internal/rs"
	"repro/internal/search"
	"repro/internal/svm"
)

// Modeling types.
type (
	// Dataset is a design matrix of performance vectors for training.
	Dataset = model.Dataset
	// ErrStats summarizes Eq. 2 prediction errors over a test set.
	ErrStats = model.ErrStats
	// PerfSet is the collecting component's output: performance vectors
	// with CSV persistence.
	PerfSet = dataset.Set
	// PerfVector is one observed execution (time, configuration, dsize).
	PerfVector = dataset.PerfVector
	// RFOptions are the random-forest hyperparameters.
	RFOptions = rf.Options
	// ANNOptions are the neural-network hyperparameters.
	ANNOptions = ann.Options
	// SVMOptions are the support-vector-regression hyperparameters.
	SVMOptions = svm.Options
	// RSOptions are the response-surface hyperparameters.
	RSOptions = rs.Options
)

// Hadoop (ODC) types for the motivation study.
type (
	// HadoopSimulator is the on-disk MapReduce-style simulator.
	HadoopSimulator = hadoopsim.Simulator
	// HadoopJob describes a MapReduce application.
	HadoopJob = hadoopsim.Job
)

// HadoopKMeans and HadoopPageRank return the ODC implementations of the
// §2.2.1 motivation programs.
func HadoopKMeans() HadoopJob   { return hadoopsim.KMeansJob() }
func HadoopPageRank() HadoopJob { return hadoopsim.PageRankJob() }

// The pluggable model-backend layer (DESIGN.md §11): the five modeling
// techniques the paper compares (§4.2, Fig. 9) behind one training
// contract and a name-keyed registry, exposed as the searchers are
// below. A backend's Opt carries every hyperparameter of its technique;
// TrainOpts carries only per-job knobs, and a zero TrainOpts trains with
// Opt as given (the zero Opt selects the package defaults).
type (
	// Backend is the pluggable modeling-stage contract.
	Backend = model.Backend
	// TrainOpts carries a Backend.Train call's per-job knobs: seed,
	// metrics registry, smoke-test budget and tree budget.
	TrainOpts = model.TrainOpts
	// BackendRegistry is an immutable name-keyed set of backends.
	BackendRegistry = model.BackendRegistry
	// HMBackend is Hierarchical Modeling, the paper's technique; its
	// zero Options select tc=5, lr=0.05, nt=3600.
	HMBackend = hm.Backend
	// RFBackend is the random forest (RFHOC's model).
	RFBackend = rf.Backend
	// ANNBackend is the artificial-neural-network baseline.
	ANNBackend = ann.Backend
	// SVMBackend is the support-vector-regression baseline.
	SVMBackend = svm.Backend
	// RSBackend is the response-surface baseline.
	RSBackend = rs.Backend
)

// DefaultBackends returns the registry of every built-in backend ("hm",
// "rf", "rs", "ann", "svm").
func DefaultBackends() *BackendRegistry { return backends.Default() }

// Evaluate computes Eq. 2 error statistics of m over ds.
func Evaluate(m Model, ds *Dataset) ErrStats { return model.Evaluate(m, ds) }

// RelErr is Eq. 2: |t_pre - t_mea| / t_mea.
func RelErr(pred, meas float64) float64 { return model.RelErr(pred, meas) }

// NewPerfSet returns an empty performance-vector set over space.
func NewPerfSet(space *Space) *PerfSet { return dataset.NewSet(space) }

// Sampling strategies for the collecting component.
type (
	// Sampler generates the configurations the collector runs.
	Sampler = conf.Sampler
	// UniformSampler is the paper's configuration generator.
	UniformSampler = conf.UniformSampler
	// LatinHypercubeSampler is the space-filling alternative.
	LatinHypercubeSampler = conf.LatinHypercubeSampler
	// SubSpace restricts tuning to a subset of parameters.
	SubSpace = conf.SubSpace
)

// NewSubSpace builds a reduced tuning space over the named parameters of
// full, freezing the rest at base's values.
func NewSubSpace(full *Space, base Config, names []string) (*SubSpace, error) {
	return conf.NewSubSpace(full, base, names)
}

// Searchers beyond the GA (§3.3's rejected alternatives), exposed for
// ablation studies.
type (
	// SearchResult is a searcher's outcome (the same type as GAResult).
	SearchResult = search.Result
	// SearchObjective scores a block of encoded configurations: out[i]
	// receives the minimized value of X[i].
	SearchObjective = search.Objective
)

// ScalarObjective adapts a per-configuration function to the block
// SearchObjective every searcher takes.
func ScalarObjective(f func(x []float64) float64) SearchObjective { return ga.Scalar(f) }

// GAMinimize runs the paper's genetic algorithm over space.
func GAMinimize(space *Space, obj SearchObjective, init [][]float64, opt GAOptions) GAResult {
	return ga.Minimize(space, obj, init, opt)
}

// RandomSearch evaluates budget random configurations.
func RandomSearch(space *Space, obj SearchObjective, budget int, seed int64) SearchResult {
	return search.Random(space, obj, budget, seed)
}

// RecursiveRandomSearch runs recursive random search [56].
func RecursiveRandomSearch(space *Space, obj SearchObjective, budget int, seed int64) SearchResult {
	return search.RecursiveRandom(space, obj, budget, seed)
}

// PatternSearch runs coordinate pattern search [46].
func PatternSearch(space *Space, obj SearchObjective, budget int, seed int64) SearchResult {
	return search.Pattern(space, obj, budget, seed)
}

// AnnealSearch runs simulated annealing (an additional ablation searcher).
func AnnealSearch(space *Space, obj SearchObjective, budget int, seed int64) SearchResult {
	return search.Anneal(space, obj, budget, seed)
}

// The pluggable search layer (DESIGN.md §16): every searcher — the GA,
// the TPE Bayesian optimizer, and the ablations above — behind one
// interface and a name-keyed registry. Options.Searcher on the tuner
// routes the pipeline's search stage through any of them; nil, like the
// registry's "ga", selects the paper's GA with the tuner's GA options.
type (
	// Searcher is the pluggable search-stage contract.
	Searcher = search.Searcher
	// SearcherOptions carries a Searcher.Search call's budget and wiring.
	SearcherOptions = search.Options
	// SearcherRegistry is an immutable name-keyed set of searchers.
	SearcherRegistry = search.Registry
)

// DefaultSearchers returns the registry of every built-in searcher
// ("ga", "tpe", "random", "rrs", "pattern", "anneal").
func DefaultSearchers() *SearcherRegistry { return search.Default() }

// TPESearch runs the from-scratch Tree-structured Parzen Estimator at
// the given candidate budget.
func TPESearch(space *Space, obj SearchObjective, budget int, seed int64) SearchResult {
	return (&search.TPE{}).Search(space, obj, search.Options{Budget: budget, Seed: seed})
}
