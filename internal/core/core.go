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

// Job is one collecting work item: execute the program under Cfg with
// DsizeMB megabytes of input.
type Job struct {
	Cfg     conf.Config
	DsizeMB float64
}

// Executor runs program-input pairs and reports their execution times in
// seconds. ExecuteBatch runs a chunk of collecting jobs in one call —
// amortizing per-run setup (program validation, scratch buffers) across
// the chunk — and returns one time per job, in job order, each depending
// on that job alone: the collector relies on this to keep collects
// byte-identical for any chunking. The simulator-backed implementation
// lives next to the Tuner (SimExecutor in this package); a binding to a
// real cluster would satisfy the same interface, and ExecutorFunc adapts
// a function that runs one job.
type Executor interface {
	ExecuteBatch(jobs []Job) []float64
}

// ExecutorFunc adapts a function running one program-input pair to the
// Executor interface.
type ExecutorFunc func(cfg conf.Config, dsizeMB float64) float64

// ExecuteBatch implements Executor: one call of f per job.
func (f ExecutorFunc) ExecuteBatch(jobs []Job) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = f(j.Cfg, j.DsizeMB)
	}
	return out
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
	// Backend selects the modeling stage: the tuner trains through
	// Backend.Train (and refits online through its Resumer, when it has
	// one) with BackendTrain as the knobs. Nil, or any hm.Backend (the
	// registry's "hm"), selects the paper's HM carrying the HM options
	// above — the way a nil Searcher selects the GA. An hm.Backend's own
	// Opt is replaced by HM: set the HM shape there, not on the backend.
	Backend model.Backend
	// BackendTrain holds the per-job training knobs. A zero Seed is
	// filled with HM.Seed when the backend is hm and HM.Seed is set, else
	// with Seed+1.
	BackendTrain model.TrainOpts
	// GA configures the searcher.
	GA ga.Options
	// Searcher selects the searching stage: the tuner calls
	// Searcher.Search with the candidate budget the GA options imply
	// (PopSize×(Generations+1), so every searcher considers as many
	// configurations as the paper's GA would), the same derived seed, the
	// same training-set population seeds, and the same objective. Nil, or
	// any search.GASearcher (the registry's "ga"), selects the paper's GA
	// carrying the GA options above — the way a nil Sampler selects the
	// uniform generator. A GASearcher's own Opt is replaced by GA: set the
	// GA shape there, not on the searcher.
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
	// SearchSec is the wall-clock time spent searching, summed over the
	// target sizes. A tune searches its targets concurrently, so the sum
	// can exceed the search phase's elapsed time.
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
	b, to := t.modelBackend()
	if hb, ok := b.(hm.Backend); ok && t.Opt.RobustSearch {
		// Robust search needs sub-model dispersion, so force the
		// hierarchical recursion to build several first-order models.
		if hb.Opt.MaxOrder < 3 {
			hb.Opt.MaxOrder = 3
		}
		if hb.Opt.TargetAccuracy == 0 {
			hb.Opt.TargetAccuracy = 0.999 // unreachable: always recurse to MaxOrder
		}
		b = hb
	}
	start := time.Now()
	m, err := b.Train(set.ToDataset(), to)
	if err != nil {
		return nil, Overhead{}, fmt.Errorf("core: training %s: %w", b.Name(), err)
	}
	return m, Overhead{ModelTrainSec: time.Since(start).Seconds()}, nil
}

// modelBackend is the modeling stage's one resolution. Nil, or any
// hm.Backend, becomes the paper's HM carrying the tuner's HM options with
// its registry attached — the way runSearcher resolves the GA — so the
// default path and the registry's "hm" train bit-identically. The
// training knobs are BackendTrain with the tuner's registry attached and
// a zero Seed filled with HM.Seed (hm only), else Seed+1.
func (t *Tuner) modelBackend() (model.Backend, model.TrainOpts) {
	opt := t.Opt.withDefaults()
	to := opt.BackendTrain
	if to.Obs == nil {
		to.Obs = t.Obs
	}
	b := opt.Backend
	switch b.(type) {
	case nil, hm.Backend:
		hmOpt := opt.HM
		if hmOpt.Obs == nil {
			hmOpt.Obs = t.Obs
		}
		if to.Seed == 0 {
			to.Seed = hmOpt.Seed
		}
		b = hm.Backend{Opt: hmOpt}
	}
	if to.Seed == 0 {
		to.Seed = opt.Seed + 1
	}
	return b, to
}

// withDsize returns the feature rows of the genomes in X at dsizeMB:
// each genome with the dsize column appended, backed by one buffer.
func withDsize(X [][]float64, dsizeMB float64) [][]float64 {
	if len(X) == 0 {
		return nil
	}
	d := len(X[0]) + 1
	rows := make([][]float64, len(X))
	buf := make([]float64, len(X)*d)
	for i, x := range X {
		row := buf[i*d : (i+1)*d : (i+1)*d]
		copy(row, x)
		row[d-1] = dsizeMB
		rows[i] = row
	}
	return rows
}

// timePredict attributes model-predict latency separately from the
// searcher's own bookkeeping: each block observes its per-row mean
// latency once per row in the "model.predict.sec" histogram, so the
// histogram's count is the rows scored and its mean the per-row cost.
// Without a registry obj is returned as-is.
func (t *Tuner) timePredict(obj ga.Objective) ga.Objective {
	if t.Obs == nil {
		return obj
	}
	h := t.Obs.Histogram("model.predict.sec", predictBounds)
	return func(X [][]float64, out []float64) {
		t0 := time.Now()
		obj(X, out)
		if len(X) > 0 {
			per := time.Since(t0).Seconds() / float64(len(X))
			for range X {
				h.Observe(per)
			}
		}
	}
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
	// The objective appends the dsize column to every genome of the
	// block and scores the rows in one model.PredictBatch call — or, for
	// robust search, one uncertainty query per row. Rows are allocated
	// per call: the evaluator scores disjoint blocks concurrently.
	predict := func(X [][]float64, out []float64) { model.PredictBatch(m, X, out) }
	if opt.RobustSearch {
		if um, ok := m.(UncertainModel); ok {
			kappa := opt.RobustKappa
			if kappa <= 0 {
				kappa = 1
			}
			predict = func(X [][]float64, out []float64) {
				for i, x := range X {
					pred, std := um.PredictWithUncertainty(x)
					out[i] = pred + kappa*std
				}
			}
		}
	}
	obj := t.timePredict(func(X [][]float64, out []float64) {
		predict(withDsize(X, dsizeMB), out)
	})
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

	// One search per target size, all at once. Each search owns its
	// seed, memo and evaluator fan-out and only reads the model and the
	// seed population, so its result is the one a lone Search returns;
	// results land by target index, progress counts completions on this
	// goroutine, and the first error in target order wins.
	type searched struct {
		cfg  conf.Config
		pred float64
		ga   ga.Result
		ov   Overhead
		err  error
	}
	results := make([]searched, len(targetsMB))
	done := make(chan struct{}, len(targetsMB)) // one send per search, never blocks
	for k, target := range targetsMB {
		go func() {
			ss := root.Child("search")
			r := &results[k]
			r.cfg, r.pred, r.ga, r.ov, r.err = t.search(m, target, seeds)
			ss.End()
			done <- struct{}{}
		}()
	}
	for k := range targetsMB {
		<-done
		if progress != nil {
			progress("search", k+1, len(targetsMB))
		}
	}
	for k, target := range targetsMB {
		r := results[k]
		if r.err != nil {
			return nil, r.err
		}
		out.Best[target] = r.cfg
		out.PredictedSec[target] = r.pred
		out.GA[target] = r.ga
		out.Overhead.SearchSec += r.ov.SearchSec
	}
	return out, nil
}

// runSearcher is the searching stage's one path. It resolves the
// searcher — nil, or any search.GASearcher, becomes the paper's GA
// carrying the tuner's GA options, the way a nil Sampler becomes
// conf.UniformSampler — and runs it with the candidate budget and wiring
// the GA options imply. Every searcher reports ga.Result, Converged
// included, so the outcome passes through unchanged.
func runSearcher(s search.Searcher, space *conf.Space, obj ga.Objective, init [][]float64, gaOpt ga.Options) ga.Result {
	switch s.(type) {
	case nil, search.GASearcher:
		s = search.GASearcher{Opt: gaOpt}
	}
	return s.Search(space, obj, search.Options{
		Budget:  search.GABudget(gaOpt),
		Seed:    gaOpt.Seed,
		Init:    init,
		Workers: gaOpt.Workers,
		Obs:     gaOpt.Obs,
	})
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
	seedRng := rand.New(rand.NewSource(t.Opt.Seed + 6))
	ss := root.Child("search")
	// RFHOC's model is datasize-blind, so the genome is the whole
	// feature row and the forest's batch prediction is the objective. A
	// nil searcher keeps the paper's baseline GA-only, whatever searcher
	// the DAC side was given.
	res := runSearcher(nil, t.Space, forest.PredictBatch, seedConfsFrom(set, gaOpt.PopSize, seedRng), gaOpt)
	ss.End()
	return t.Space.FromVector(res.Best)
}
