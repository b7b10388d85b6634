package dac

import (
	"repro/internal/ann"
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

// NewHMTrainer returns the Hierarchical Modeling trainer — the paper's
// modeling technique. The zero Options select tc=5, lr=0.05, nt=3600.
func NewHMTrainer(opt HMOptions) Trainer { return hm.Trainer{Opt: opt} }

// NewRFTrainer returns the random-forest trainer (RFHOC's model).
func NewRFTrainer(opt RFOptions) Trainer { return rf.Trainer{Opt: opt} }

// NewANNTrainer returns the artificial-neural-network baseline trainer.
func NewANNTrainer(opt ANNOptions) Trainer { return ann.Trainer{Opt: opt} }

// NewSVMTrainer returns the support-vector-regression baseline trainer.
func NewSVMTrainer(opt SVMOptions) Trainer { return svm.Trainer{Opt: opt} }

// NewRSTrainer returns the response-surface baseline trainer.
func NewRSTrainer(opt RSOptions) Trainer { return rs.Trainer{Opt: opt} }

// Trainers returns the five modeling techniques the paper compares in
// Fig. 9, in its order: RS, ANN, SVM, RF, HM.
func Trainers() []Trainer {
	return []Trainer{
		rs.Trainer{}, ann.Trainer{}, svm.Trainer{}, rf.Trainer{}, hm.Trainer{},
	}
}

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
	// SearchResult is a non-GA searcher's outcome.
	SearchResult = search.Result
	// SearchObjective maps an encoded configuration to the minimized value.
	SearchObjective = search.Objective
)

// GAMinimize runs the paper's genetic algorithm over space.
func GAMinimize(space *Space, obj SearchObjective, init [][]float64, opt GAOptions) GAResult {
	return ga.Minimize(space, ga.Objective(obj), init, opt)
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
