// Package core is the paper's primary contribution assembled: the DAC
// auto-tuner of Fig. 4, with its three components — collecting (random
// configurations × dataset sizes run on the cluster), modeling
// (Hierarchical Modeling over the 41 parameters plus datasize), and
// searching (a genetic algorithm over the trained model) — plus the RFHOC
// baseline pipeline the paper reimplements for comparison.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/conf"
	"repro/internal/dataset"
	"repro/internal/ga"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/search"
)

// UncertainModel is a performance model that can report how unsure it is
// about a prediction (hm.Model of order ≥ 2 implements it).
type UncertainModel interface {
	model.Model
	// PredictWithUncertainty returns the prediction in seconds and a
	// dispersion estimate in seconds.
	PredictWithUncertainty(x []float64) (pred, std float64)
}

// Executor runs one program-input pair under a configuration and reports
// its execution time in seconds. The simulator-backed implementation lives
// next to the Tuner (SimExecutor in this package); a binding to a real
// cluster would satisfy the same interface.
type Executor interface {
	Execute(cfg conf.Config, dsizeMB float64) float64
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(cfg conf.Config, dsizeMB float64) float64

// Execute implements Executor.
func (f ExecutorFunc) Execute(cfg conf.Config, dsizeMB float64) float64 {
	return f(cfg, dsizeMB)
}

// Job is one collecting work item: execute the program under Cfg with
// DsizeMB megabytes of input.
type Job struct {
	Cfg     conf.Config
	DsizeMB float64
}

// BatchExecutor is an Executor that can run a whole chunk of collecting
// jobs in one call, amortizing per-run setup (program validation,
// scratch buffers) across the chunk. ExecuteBatch must return one time
// per job, in job order, each identical to what Execute would return for
// that job — the collector relies on this to keep batched and per-job
// collection byte-identical. The collector prefers this interface when
// the executor implements it.
type BatchExecutor interface {
	Executor
	ExecuteBatch(jobs []Job) []float64
}

// Options configures the pipeline. The zero value selects the paper's
// settings: m=10 dataset sizes, ntrain=2000 training samples, HM modeling
// with tc=5/lr=0.05/nt=3600, GA with popSize 100.
type Options struct {
	// NumSizes is m, the number of distinct training dataset sizes
	// (§3.1 sets it to 10; consecutive sizes differ by ≥10%, Eq. 4).
	NumSizes int
	// NTrain is the number of performance vectors to collect (§5.1
	// determines 2000).
	NTrain int
	// HM configures the performance model.
	HM hm.Options
	// Backend, when non-nil, replaces the HM modeling stage: the tuner
	// trains through Backend.Train instead of hm.Train, with BackendTrain
	// as the knobs. Nil keeps the paper's HM path, including its exact
	// seed derivation — default-path output is byte-identical with or
	// without the backend layer present.
	Backend model.Backend
	// BackendTrain holds the cross-backend training knobs when Backend is
	// set. A zero Seed is filled with Seed+1, mirroring the HM path.
	BackendTrain model.TrainOpts
	// GA configures the searcher.
	GA ga.Options
	// Searcher selects the searching stage: the tuner calls
	// Searcher.Search with the candidate budget the GA options imply
	// (PopSize×(Generations+1), so every searcher considers as many
	// configurations as the paper's GA would), the same derived seed, the
	// same training-set population seeds, and the same batch objective
	// and genome cache. Nil, or any search.GASearcher (the registry's
	// "ga"), selects the paper's GA carrying the GA options above — the
	// way a nil Sampler selects the uniform generator. A GASearcher's own
	// Opt is replaced by GA: set the GA shape there, not on the searcher.
	Searcher search.Searcher
	// Parallelism bounds concurrent executions while collecting
	// (0 = GOMAXPROCS). The simulated cluster cost is unaffected.
	Parallelism int
	// Sampler generates the collected configurations; nil selects the
	// paper's uniform configuration generator. conf.LatinHypercubeSampler
	// is the space-filling alternative (see the sampling ablation bench).
	Sampler conf.Sampler
	// RobustSearch makes the GA minimize prediction + RobustKappa ×
	// model dispersion instead of the point prediction, when the model
	// exposes an uncertainty estimate (hm models of order ≥ 2 do). This
	// extension counters the searcher exploiting regions where the model
	// is optimistically wrong; see the ablation benchmark.
	RobustSearch bool
	// RobustKappa is the dispersion penalty weight (default 1).
	RobustKappa float64
	// Seed drives configuration generation and sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.NumSizes <= 0 {
		o.NumSizes = 10
	}
	if o.NTrain <= 0 {
		o.NTrain = 2000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Tuner is a DAC instance for one program on one cluster.
type Tuner struct {
	// Space is the configuration space (conf.StandardSpace for Spark).
	Space *conf.Space
	// Exec runs the program-input pairs.
	Exec Executor
	// Opt holds the pipeline settings.
	Opt Options
	// Obs, when non-nil, receives the pipeline's metrics: per-phase
	// wall-clock spans (tune → collect/model/search), collection job
	// counts and cluster time, model fit and predict timing, and the
	// GA's counters (the registry is propagated into hm and ga unless
	// their own Options carry one). Nil keeps every instrumented path on
	// its zero-cost branch.
	Obs *obs.Registry
}

// obsHM returns the HM options with the tuner's registry attached.
func (t *Tuner) obsHM(o hm.Options) hm.Options {
	if o.Obs == nil {
		o.Obs = t.Obs
	}
	return o
}

// obsGA returns the GA options with the tuner's registry attached.
func (t *Tuner) obsGA(o ga.Options) ga.Options {
	if o.Obs == nil {
		o.Obs = t.Obs
	}
	return o
}

// predictBounds buckets single model predictions, which cost
// microseconds against DefaultTimeBounds' millisecond floor.
var predictBounds = []float64{
	1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 0.01, 0.1,
}

// Overhead records the pipeline's cost, the quantities of Table 3.
type Overhead struct {
	// CollectClusterHours is the accumulated execution time of the
	// collected runs — cluster time, the paper's "collecting" hours.
	CollectClusterHours float64
	// ModelTrainSec is the wall-clock time spent training the model.
	ModelTrainSec float64
	// SearchSec is the wall-clock time spent searching per target size.
	SearchSec float64
}

// TrainingSizesMB generates the m training dataset sizes between minMB and
// maxMB, geometrically spaced so every consecutive pair differs by at
// least 10% when the range allows it (Eq. 4).
func (t *Tuner) TrainingSizesMB(minMB, maxMB float64) []float64 {
	opt := t.Opt.withDefaults()
	m := opt.NumSizes
	if m == 1 || minMB >= maxMB {
		return []float64{minMB}
	}
	ratio := math.Pow(maxMB/minMB, 1/float64(m-1))
	sizes := make([]float64, m)
	for i := range sizes {
		sizes[i] = minMB * math.Pow(ratio, float64(i))
	}
	return sizes
}

// Collect runs the collecting component: NTrain executions with random
// configurations spread across the given dataset sizes, gathered into a
// training set. It is CollectResumable with zero hooks: executions run
// concurrently in checkpoint-sized batches, and results are
// deterministic in (Seed, Exec) because each row's configuration and size
// are fixed up front.
func (t *Tuner) Collect(sizesMB []float64) (*dataset.Set, Overhead, error) {
	return t.CollectResumable(context.Background(), sizesMB, RowHooks{})
}

// Model trains the HM performance model over the collected set.
func (t *Tuner) Model(set *dataset.Set) (model.Model, Overhead, error) {
	sp := t.Obs.StartSpan("model")
	defer sp.End()
	return t.model(set)
}

func (t *Tuner) model(set *dataset.Set) (model.Model, Overhead, error) {
	opt := t.Opt.withDefaults()
	if opt.Backend != nil {
		trainOpt := opt.BackendTrain
		if trainOpt.Seed == 0 {
			trainOpt.Seed = opt.Seed + 1
		}
		if trainOpt.Obs == nil {
			trainOpt.Obs = t.Obs
		}
		start := time.Now()
		m, err := opt.Backend.Train(set.ToDataset(), trainOpt)
		if err != nil {
			return nil, Overhead{}, fmt.Errorf("core: training %s: %w", opt.Backend.Name(), err)
		}
		return m, Overhead{ModelTrainSec: time.Since(start).Seconds()}, nil
	}
	hmOpt := t.obsHM(opt.HM)
	if hmOpt.Seed == 0 {
		hmOpt.Seed = opt.Seed + 1
	}
	if opt.RobustSearch {
		// Robust search needs sub-model dispersion, so force the
		// hierarchical recursion to build several first-order models.
		if hmOpt.MaxOrder < 3 {
			hmOpt.MaxOrder = 3
		}
		if hmOpt.TargetAccuracy == 0 {
			hmOpt.TargetAccuracy = 0.999 // unreachable: always recurse to MaxOrder
		}
	}
	start := time.Now()
	m, err := hm.Train(set.ToDataset(), hmOpt)
	if err != nil {
		return nil, Overhead{}, fmt.Errorf("core: training: %w", err)
	}
	return m, Overhead{ModelTrainSec: time.Since(start).Seconds()}, nil
}

// Search runs the GA over the trained model for one target dataset size
// and returns the best configuration, its predicted time, and the GA
// result (for convergence analysis, Fig. 11). seedConfs optionally seeds
// the population, as the paper does with vectors from the training set.
func (t *Tuner) Search(m model.Model, dsizeMB float64, seedConfs [][]float64) (conf.Config, float64, ga.Result, Overhead, error) {
	sp := t.Obs.StartSpan("search")
	defer sp.End()
	return t.search(m, dsizeMB, seedConfs)
}

func (t *Tuner) search(m model.Model, dsizeMB float64, seedConfs [][]float64) (conf.Config, float64, ga.Result, Overhead, error) {
	opt := t.Opt.withDefaults()
	gaOpt := t.obsGA(opt.GA)
	if gaOpt.Seed == 0 {
		gaOpt.Seed = opt.Seed + 2
	}
	// The objective allocates its feature row per call: the GA's worker
	// pool calls it from several goroutines, so a shared buffer would race.
	d := t.Space.Len()
	obj := func(cfgVec []float64) float64 {
		x := make([]float64, d+1)
		copy(x, cfgVec)
		x[d] = dsizeMB
		return m.Predict(x)
	}
	// Batch form of the same objective: append the dsize column to every
	// genome and score the block through the model's batch fast path.
	// Bit-identical to obj per row (the BatchPredictor contract).
	var batchObj ga.BatchObjective
	if bp, ok := m.(model.BatchPredictor); ok {
		batchObj = func(X [][]float64, out []float64) {
			rows := make([][]float64, len(X))
			buf := make([]float64, len(X)*(d+1))
			for i, cfgVec := range X {
				row := buf[i*(d+1) : (i+1)*(d+1) : (i+1)*(d+1)]
				copy(row, cfgVec)
				row[d] = dsizeMB
				rows[i] = row
			}
			bp.PredictBatch(rows, out)
		}
	}
	if opt.RobustSearch {
		if um, ok := m.(UncertainModel); ok {
			kappa := opt.RobustKappa
			if kappa <= 0 {
				kappa = 1
			}
			// Uncertainty has no batch form; fall back to per-row calls.
			batchObj = nil
			obj = func(cfgVec []float64) float64 {
				x := make([]float64, d+1)
				copy(x, cfgVec)
				x[d] = dsizeMB
				pred, std := um.PredictWithUncertainty(x)
				return pred + kappa*std
			}
		}
	}
	if t.Obs != nil {
		// Attribute model-predict latency separately from the GA's own
		// bookkeeping; the histogram add costs ~100ns against a predict
		// that walks thousands of trees.
		h := t.Obs.Histogram("model.predict.sec", predictBounds)
		inner := obj
		obj = func(cfgVec []float64) float64 {
			t0 := time.Now()
			v := inner(cfgVec)
			h.Observe(time.Since(t0).Seconds())
			return v
		}
		if batchObj != nil {
			// The batch path observes the per-row mean, once per row, so
			// the histogram's count and sum stay comparable to the
			// per-row path.
			innerB := batchObj
			batchObj = func(X [][]float64, out []float64) {
				t0 := time.Now()
				innerB(X, out)
				if len(X) > 0 {
					per := time.Since(t0).Seconds() / float64(len(X))
					for range X {
						h.Observe(per)
					}
				}
			}
		}
	}
	if gaOpt.BatchObj == nil {
		gaOpt.BatchObj = batchObj
	}
	start := time.Now()
	res := runSearcher(opt.Searcher, t.Space, obj, seedConfs, gaOpt)
	elapsed := time.Since(start).Seconds()
	cfg, err := t.Space.FromVector(res.Best)
	if err != nil {
		return conf.Config{}, 0, res, Overhead{}, fmt.Errorf("core: search result: %w", err)
	}
	return cfg, res.BestFitness, res, Overhead{SearchSec: elapsed}, nil
}

// TuneResult is the outcome of an end-to-end Tune call.
type TuneResult struct {
	// Best maps each target dataset size (MB) to its tuned configuration.
	Best map[float64]conf.Config
	// PredictedSec maps each target size to the model's prediction for
	// the tuned configuration.
	PredictedSec map[float64]float64
	// Set is the collected training data.
	Set *dataset.Set
	// Model is the trained performance model.
	Model model.Model
	// GA holds the searcher result per target size.
	GA map[float64]ga.Result
	// Overhead aggregates Table 3's costs.
	Overhead Overhead
}

// Tune runs the full DAC pipeline: collect over [minMB, maxMB], train HM,
// then search a configuration for every target size.
func (t *Tuner) Tune(minMB, maxMB float64, targetsMB []float64) (*TuneResult, error) {
	root := t.Obs.StartSpan("tune")
	defer root.End()

	sizes := t.TrainingSizesMB(minMB, maxMB)
	cs := root.Child("collect")
	set, ovC, err := t.collect(context.Background(), sizes, RowHooks{})
	cs.End()
	if err != nil {
		return nil, err
	}
	return t.tuneCollected(root, set, ovC, targetsMB, nil)
}

// TuneCollected runs the model and search phases of Tune over an
// already-collected training set. Given the set Collect (or a resumed
// CollectResumable) produces for the tuner's Options, the result — best
// configuration, prediction, GA trajectory — is identical to Tune's for
// the same seed: the modeling and searching randomness derives from
// Opt.Seed alone, never from how the set was gathered. This is the seam
// the tuning daemon uses to make the collect phase durable without
// perturbing the pipeline's output. progress, when non-nil, is called as
// phases finish ("model" once, "search" per completed target).
func (t *Tuner) TuneCollected(set *dataset.Set, collectOv Overhead, targetsMB []float64, progress func(phase string, done, total int)) (*TuneResult, error) {
	root := t.Obs.StartSpan("tune")
	defer root.End()
	return t.tuneCollected(root, set, collectOv, targetsMB, progress)
}

func (t *Tuner) tuneCollected(root *obs.Span, set *dataset.Set, ovC Overhead, targetsMB []float64, progress func(phase string, done, total int)) (*TuneResult, error) {
	ms := root.Child("model")
	m, ovM, err := t.model(set)
	ms.End()
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress("model", 1, 1)
	}
	out := &TuneResult{
		Best:         make(map[float64]conf.Config, len(targetsMB)),
		PredictedSec: make(map[float64]float64, len(targetsMB)),
		GA:           make(map[float64]ga.Result, len(targetsMB)),
		Set:          set,
		Model:        m,
		Overhead:     Overhead{CollectClusterHours: ovC.CollectClusterHours, ModelTrainSec: ovM.ModelTrainSec},
	}
	seedRng := rand.New(rand.NewSource(t.Opt.withDefaults().Seed + 5))
	seeds := seedConfsFrom(set, t.Opt.withDefaults().GA.PopSize, seedRng)
	for k, target := range targetsMB {
		ss := root.Child("search")
		cfg, pred, gaRes, ovS, err := t.search(m, target, seeds)
		ss.End()
		if err != nil {
			return nil, err
		}
		out.Best[target] = cfg
		out.PredictedSec[target] = pred
		out.GA[target] = gaRes
		out.Overhead.SearchSec += ovS.SearchSec
		if progress != nil {
			progress("search", k+1, len(targetsMB))
		}
	}
	return out, nil
}

// runSearcher is the searching stage's one path. It resolves the
// searcher — nil, or any search.GASearcher, becomes the paper's GA
// carrying the tuner's GA options, the way a nil Sampler becomes
// conf.UniformSampler — runs it with the candidate budget and wiring the
// GA options imply, and converts the outcome back to the GA result shape
// the pipeline reports (Converged recomputed with ga's
// 0.5%-of-final-best rule over the searcher's round history).
func runSearcher(s search.Searcher, space *conf.Space, obj ga.Objective, init [][]float64, gaOpt ga.Options) ga.Result {
	switch s.(type) {
	case nil, search.GASearcher:
		s = search.GASearcher{Opt: gaOpt}
	}
	sres := s.Search(space, search.Objective(obj), search.Options{
		Budget:   search.GABudget(gaOpt),
		Seed:     gaOpt.Seed,
		Init:     init,
		BatchObj: gaOpt.BatchObj,
		Workers:  gaOpt.Workers,
		Cache:    gaOpt.Cache,
		Obs:      gaOpt.Obs,
	})
	res := ga.Result{
		Best:        sres.Best,
		BestFitness: sres.BestFitness,
		History:     sres.History,
		Evaluations: sres.Evaluations,
		CacheHits:   sres.CacheHits,
	}
	for g, v := range res.History {
		if v <= res.BestFitness*1.005+1e-12 {
			res.Converged = g + 1
			break
		}
	}
	return res
}

// seedConfsFrom extracts up to n configuration vectors from the training
// set to seed the GA population, exactly as §3.3 describes: popSize
// vectors randomly selected from S with the time element removed.
func seedConfsFrom(set *dataset.Set, n int, rng *rand.Rand) [][]float64 {
	if n <= 0 {
		n = 100
	}
	if n > set.Len() {
		n = set.Len()
	}
	perm := rng.Perm(set.Len())
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = append([]float64(nil), set.Vectors[perm[i]].Conf...)
	}
	return out
}

// RFHOCTuner is the paper's reimplementation of RFHOC [4] on Spark: the
// same collect-model-search pipeline but with a random-forest model and no
// datasize awareness — the model sees only the 41 configuration columns,
// and one configuration is produced for the program regardless of input
// size (§5.6 explains this is why DAC beats it on large inputs).
type RFHOCTuner struct {
	Space *conf.Space
	Exec  Executor
	Opt   Options
	RF    rf.Options
	// Obs receives the baseline pipeline's metrics like Tuner.Obs does.
	Obs *obs.Registry
}

// Tune collects like DAC (same budget for fairness), trains a
// datasize-blind random forest, and searches one configuration.
func (t *RFHOCTuner) Tune(minMB, maxMB float64) (conf.Config, error) {
	root := t.Obs.StartSpan("rfhoc.tune")
	defer root.End()
	inner := &Tuner{Space: t.Space, Exec: t.Exec, Opt: t.Opt, Obs: t.Obs}
	sizes := inner.TrainingSizesMB(minMB, maxMB)
	cs := root.Child("collect")
	set, _, err := inner.collect(context.Background(), sizes, RowHooks{})
	cs.End()
	if err != nil {
		return conf.Config{}, err
	}
	// Drop the dsize column: RFHOC's model is configuration-only.
	ds := model.NewDataset(t.Space.Names())
	for _, pv := range set.Vectors {
		ds.Add(pv.Conf, pv.TimeSec)
	}
	rfOpt := t.RF
	if rfOpt.Seed == 0 {
		rfOpt.Seed = t.Opt.Seed + 3
	}
	ms := root.Child("model")
	forest, err := rf.Train(ds, rfOpt)
	ms.End()
	if err != nil {
		return conf.Config{}, fmt.Errorf("core: rfhoc training: %w", err)
	}
	gaOpt := inner.obsGA(t.Opt.GA)
	if gaOpt.Seed == 0 {
		gaOpt.Seed = t.Opt.Seed + 4
	}
	if gaOpt.BatchObj == nil {
		// RFHOC's model is datasize-blind, so the genome is the whole
		// feature row — the forest's batch path applies directly.
		gaOpt.BatchObj = forest.PredictBatch
	}
	seedRng := rand.New(rand.NewSource(t.Opt.Seed + 6))
	ss := root.Child("search")
	res := ga.Minimize(t.Space, func(x []float64) float64 { return forest.Predict(x) },
		seedConfsFrom(set, gaOpt.PopSize, seedRng), gaOpt)
	ss.End()
	return t.Space.FromVector(res.Best)
}
