package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/dataset"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sparksim"
)

// This file is the online tuning mode (LOCAT/Tuneful's production form of
// the paper's pipeline): instead of collecting NTrain runs up front, a
// small screening sample ranks the parameters by importance, the
// insignificant ones are frozen at their defaults, and the tuner then
// alternates a few measured runs with model refits and guarded searches
// over the significant subspace — reaching comparable tuned quality on a
// fraction of the cluster budget (see internal/experiments/online.go for
// the comparison against full DAC).

// OOMGuard vetoes a candidate configuration before the online tuner
// spends a cluster run on it: it returns true when cfg is predicted to
// OOM at dsizeMB. Implementations must be deterministic in their inputs —
// the online trajectory is replayed byte-identically on resume.
type OOMGuard func(cfg conf.Config, dsizeMB float64) bool

// SimOOMGuard builds an OOMGuard from sparksim's analytic memory
// accounting (sparksim.CheckMemory): a candidate is rejected when the
// accounting predicts an OOM abort or, when maxPressure > 0, when any
// stage's working-set / execution-memory ratio exceeds maxPressure (a
// stricter, spill-averse threshold).
func SimOOMGuard(cl cluster.Cluster, p *sparksim.Program, maxPressure float64) OOMGuard {
	return func(cfg conf.Config, dsizeMB float64) bool {
		v := sparksim.CheckMemory(cl, cfg, p, dsizeMB)
		if v.Abort {
			return true
		}
		return maxPressure > 0 && v.WorstPressure > maxPressure
	}
}

// guardPenalty is the fitness assigned to guard-rejected genomes: large
// enough that any completing configuration beats it, finite so the GA's
// arithmetic stays well-behaved.
const guardPenalty = 1e18

// OnlineOptions configure TuneOnline. The zero value selects defaults
// sized so a full online run costs roughly a quarter of the paper's
// NTrain=2000 collect (200 + 8×32 + 1 = 457 runs).
type OnlineOptions struct {
	// ScreenSamples is the size of the initial importance-screening
	// sample, spread across the training sizes like a collect sweep
	// (default 200, minimum 20).
	ScreenSamples int
	// TopK is how many parameters survive screening; the rest are frozen
	// at their defaults (default 10).
	TopK int
	// Iterations is the number of collect→refit→search rounds after
	// screening (default 8).
	Iterations int
	// IterBatch is how many candidate configurations each iteration
	// measures at the target size (default 32).
	IterBatch int
	// ExtraTrees bounds each warm-started refit's additional boosting
	// budget, hm.Resume's extra argument (default 200).
	ExtraTrees int
	// Guard, when non-nil, vetoes candidates predicted to OOM before
	// they are run or selected (SimOOMGuard for the simulator).
	Guard OOMGuard
}

func (o OnlineOptions) withDefaults() OnlineOptions {
	if o.ScreenSamples <= 0 {
		o.ScreenSamples = 200
	}
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.Iterations <= 0 {
		o.Iterations = 8
	}
	if o.IterBatch <= 0 {
		o.IterBatch = 32
	}
	if o.ExtraTrees <= 0 {
		o.ExtraTrees = 200
	}
	return o
}

// OnlineIteration records one collect→refit→search round.
type OnlineIteration struct {
	// Runs is the cumulative measured-run count after this iteration.
	Runs int
	// WarmStarted reports whether the refit continued the previous model
	// (hm.Resume / backend Resumer) rather than retraining from scratch.
	WarmStarted bool
	// ValErr is the refit model's validation error (hm models; 0 for
	// backends that don't report one).
	ValErr float64
	// PredictedSec is the guarded subspace search's best predicted time.
	PredictedSec float64
	// BestMeasuredSec is the best measured target-size run so far.
	BestMeasuredSec float64
	// GuardRejected counts candidates the safety guard vetoed during
	// this iteration's search and candidate generation.
	GuardRejected int
}

// OnlineResult is TuneOnline's outcome.
type OnlineResult struct {
	// Best is the best configuration actually measured at the target
	// size (online tuning trusts measurements over model optima).
	Best conf.Config
	// MeasuredSec is Best's measured execution time.
	MeasuredSec float64
	// PredictedSec is the final model's prediction for Best.
	PredictedSec float64
	// Screened lists the parameters that survived importance screening,
	// most important first; Importance holds their normalized shares.
	Screened   []string
	Importance []float64
	// Iterations records each online round.
	Iterations []OnlineIteration
	// TotalRuns is every measured run: screening, candidates, and the
	// final confirming run.
	TotalRuns int
	// GuardRejections counts every candidate the safety guard vetoed.
	GuardRejections int
	// Model is the final refit model; Set holds every observation in row
	// order (byte-identical across resumes for the same options).
	Model model.Model
	Set   *dataset.Set
	// Overhead aggregates the run's costs like Tune does.
	Overhead Overhead
}

// onlineBatchRows is TuneOnline's checkpoint granularity: small
// enough that a killed daemon loses little work, small batches anyway
// since IterBatch is typically a few dozen.
const onlineBatchRows = 32

// TuneOnline runs the online importance-screened tuning loop against the
// target size targetMB, with training sizes spread over [minMB, maxMB]
// for the screening sample. The whole trajectory — screening sample,
// surviving parameters, every iteration's candidates — is a pure
// function of (Opt.Seed, Exec, OnlineOptions), so re-running with hooks
// whose Known replays journaled times reproduces the identical
// observation set and final configuration without re-executing finished
// rows.
//
// Every measured run goes through the row engine under hooks, with row
// indices global across the trajectory: screening rows first, then each
// iteration's candidate batch, then the final confirming run. Progress
// phases: "screen" counts screening rows, "model" fires once after the
// initial fit, "iterate" counts each iteration's candidate rows and then
// the completed iterations, and "final" the confirming run.
func (t *Tuner) TuneOnline(ctx context.Context, minMB, maxMB, targetMB float64, oo OnlineOptions, hooks RowHooks) (*OnlineResult, error) {
	root := t.Obs.StartSpan("tune_online")
	defer root.End()

	opt := t.Opt.withDefaults()
	oo = oo.withDefaults()
	if targetMB <= 0 {
		return nil, fmt.Errorf("core: online target size %v MB", targetMB)
	}
	if oo.ScreenSamples < 20 {
		return nil, fmt.Errorf("core: screening needs at least 20 samples, got %d", oo.ScreenSamples)
	}
	sizes := t.TrainingSizesMB(minMB, maxMB)
	if len(sizes) == 0 {
		return nil, fmt.Errorf("core: no dataset sizes")
	}
	// measure executes one index-contiguous block of the trajectory's
	// rows, starting at global index base.
	measure := func(base int, jobs []Job, phase string) ([]float64, error) {
		times, known, err := t.runRows(ctx, base, jobs, onlineBatchRows, phase, hooks)
		if known > 0 {
			t.Obs.Counter("core.online.resumed.rows").Add(int64(known))
		}
		if err == nil && known < len(jobs) {
			t.Obs.Counter("core.online.runs").Add(int64(len(jobs) - known))
		}
		return times, err
	}

	// --- Screening: a small collect sweep ranks the parameters. -------
	// The screening rows reuse CollectJobs' derivation with NTrain set to
	// the screening budget, so their (config, size) list is a pure
	// function of (Space, Seed, Sampler, sizes).
	screens := *t
	screens.Opt = opt
	screens.Opt.NTrain = oo.ScreenSamples
	jobs := screens.CollectJobs(sizes)

	cs := root.Child("screen")
	screenTimes, err := measure(0, jobs, "screen")
	cs.End()
	if err != nil {
		return nil, err
	}
	allJobs := append([]Job(nil), jobs...)
	allTimes := append([]float64(nil), screenTimes...)

	set := dataset.NewSet(t.Space)
	for i, j := range jobs {
		set.Add(j.Cfg, j.DsizeMB, screenTimes[i])
	}

	ms := root.Child("model")
	m, ovM, err := t.model(set)
	ms.End()
	if err != nil {
		return nil, err
	}
	if hooks.Progress != nil {
		hooks.Progress("model", 1, 1)
	}
	overhead := Overhead{ModelTrainSec: ovM.ModelTrainSec}

	screened, shares, err := t.screenParams(m, oo.TopK)
	if err != nil {
		return nil, err
	}
	ss, err := conf.NewSubSpace(t.Space, t.Space.Default(), screened)
	if err != nil {
		return nil, err
	}
	t.Obs.Counter("core.online.screened.params").Add(int64(len(screened)))

	// --- Iterate: search the subspace, measure candidates, refit. ------
	// Every random draw comes from dedicated streams seeded off Opt.Seed,
	// disjoint from the offline pipeline's Seed+1/Seed+2/... slots, so
	// the trajectory replays identically on resume.
	seedStream := rand.New(rand.NewSource(opt.Seed + 11))
	iterations := make([]OnlineIteration, 0, oo.Iterations)
	guardRejections := 0
	bestMeasured := math.Inf(1)
	var bestCfg conf.Config
	haveBest := false
	nextIndex := len(jobs)

	for it := 0; it < oo.Iterations; it++ {
		refitSeed := seedStream.Int63()
		gaSeed := seedStream.Int63()
		candSeed := seedStream.Int63()

		warm := false
		if it > 0 {
			var fitSec float64
			m, warm, fitSec, err = t.refitOnline(root, m, set, refitSeed, oo.ExtraTrees)
			if err != nil {
				return nil, err
			}
			overhead.ModelTrainSec += fitSec
		}

		srch, err := t.searchSubspace(root, m, ss, set, targetMB, gaSeed, oo.Guard)
		if err != nil {
			return nil, err
		}
		overhead.SearchSec += srch.sec
		rejected := srch.rejected

		cands := onlineCandidates(ss, srch.cfg, oo.IterBatch, rand.New(rand.NewSource(candSeed)), oo.Guard, targetMB, &rejected)
		cjobs := make([]Job, len(cands))
		for i, c := range cands {
			cjobs[i] = Job{Cfg: c, DsizeMB: targetMB}
		}
		is := root.Child("iterate")
		candTimes, err := measure(nextIndex, cjobs, "iterate")
		is.End()
		if err != nil {
			return nil, err
		}
		nextIndex += len(cjobs)
		for i, cj := range cjobs {
			set.Add(cj.Cfg, cj.DsizeMB, candTimes[i])
			if candTimes[i] < bestMeasured {
				bestMeasured = candTimes[i]
				bestCfg = cj.Cfg
				haveBest = true
			}
		}
		allJobs = append(allJobs, cjobs...)
		allTimes = append(allTimes, candTimes...)
		guardRejections += rejected

		valErr := 0.0
		if hmModel, ok := m.(*hm.Model); ok {
			valErr = hmModel.ValErr
		}
		iterations = append(iterations, OnlineIteration{
			Runs:            len(allJobs),
			WarmStarted:     warm,
			ValErr:          valErr,
			PredictedSec:    srch.pred,
			BestMeasuredSec: bestMeasured,
			GuardRejected:   rejected,
		})
		t.Obs.Counter("core.online.iterations").Inc()
		if hooks.Progress != nil {
			hooks.Progress("iterate", it+1, oo.Iterations)
		}
	}

	// --- Final: refit on everything, search once more, confirm. --------
	refitSeed := seedStream.Int63()
	gaSeed := seedStream.Int63()
	var fitSec float64
	m, _, fitSec, err = t.refitOnline(root, m, set, refitSeed, oo.ExtraTrees)
	if err != nil {
		return nil, err
	}
	overhead.ModelTrainSec += fitSec
	srch, err := t.searchSubspace(root, m, ss, set, targetMB, gaSeed, oo.Guard)
	if err != nil {
		return nil, err
	}
	overhead.SearchSec += srch.sec
	guardRejections += srch.rejected

	finalJob := []Job{{Cfg: srch.cfg, DsizeMB: targetMB}}
	fs := root.Child("final")
	finalTimes, err := measure(nextIndex, finalJob, "final")
	fs.End()
	if err != nil {
		return nil, err
	}
	set.Add(srch.cfg, targetMB, finalTimes[0])
	allJobs = append(allJobs, finalJob...)
	allTimes = append(allTimes, finalTimes...)
	if finalTimes[0] < bestMeasured || !haveBest {
		bestMeasured = finalTimes[0]
		bestCfg = srch.cfg
	}

	var clusterSec float64
	for _, sec := range allTimes {
		clusterSec += sec
	}
	overhead.CollectClusterHours = clusterSec / 3600
	t.Obs.Counter("core.online.guard.rejections").Add(int64(guardRejections))

	d := t.Space.Len()
	x := make([]float64, d+1)
	copy(x, bestCfg.Vector())
	x[d] = targetMB
	return &OnlineResult{
		Best:            bestCfg,
		MeasuredSec:     bestMeasured,
		PredictedSec:    m.Predict(x),
		Screened:        screened,
		Importance:      shares,
		Iterations:      iterations,
		TotalRuns:       len(allJobs),
		GuardRejections: guardRejections,
		Model:           m,
		Set:             set,
		Overhead:        overhead,
	}, nil
}

// screenParams ranks the model's configuration-parameter importances
// (the dsize column is excluded — it is not tunable) and returns the top
// k names with their normalized shares, most important first. Ties break
// toward the lower parameter index so the ranking is deterministic.
func (t *Tuner) screenParams(m model.Model, k int) ([]string, []float64, error) {
	fi, ok := m.(interface{ FeatureImportance() []float64 })
	if !ok {
		return nil, nil, fmt.Errorf("core: online tuning needs a model that reports feature importance (hm, rf)")
	}
	imp := fi.FeatureImportance()
	n := t.Space.Len()
	if len(imp) < n {
		return nil, nil, fmt.Errorf("core: model reports %d feature importances for %d parameters", len(imp), n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return imp[order[a]] > imp[order[b]] })
	if k > n {
		k = n
	}
	names := make([]string, k)
	shares := make([]float64, k)
	for i := 0; i < k; i++ {
		names[i] = t.Space.Param(order[i]).Name
		shares[i] = imp[order[i]]
	}
	return names, shares, nil
}

// refitOnline refits the model on every accumulated observation:
// warm-started through the backend's Resumer (hm's boosting resume) when
// it has one, from scratch otherwise. seed isolates each refit's
// randomness; deterministic in (model state, set, seed). Each call is
// one interval of parent's "refit" child span.
func (t *Tuner) refitOnline(parent *obs.Span, m model.Model, set *dataset.Set, seed int64, extra int) (model.Model, bool, float64, error) {
	defer parent.Child("refit").End()
	b, to := t.modelBackend()
	to.Seed = seed
	ds := set.ToDataset()
	start := time.Now()
	if r, ok := b.(model.Resumer); ok {
		if err := r.Resume(m, ds, to, extra); err != nil {
			return nil, false, 0, fmt.Errorf("core: online refit: %w", err)
		}
		t.Obs.Counter("core.online.warmstarts").Inc()
		return m, true, time.Since(start).Seconds(), nil
	}
	nm, err := b.Train(ds, to)
	if err != nil {
		return nil, false, 0, fmt.Errorf("core: online refit: %w", err)
	}
	return nm, false, time.Since(start).Seconds(), nil
}

// onlineSearch is one guarded subspace search's outcome.
type onlineSearch struct {
	cfg      conf.Config // full-space expansion of the best genome
	pred     float64
	rejected int
	sec      float64
}

// searchSubspace runs the GA over the screened subspace against m at
// dsizeMB, with guard-rejected genomes penalized out of contention. The
// population is seeded from the subspace projections of the best
// observed rows. Each call is one interval of parent's "search" child
// span.
func (t *Tuner) searchSubspace(parent *obs.Span, m model.Model, ss *conf.SubSpace, set *dataset.Set, dsizeMB float64, gaSeed int64, guard OOMGuard) (onlineSearch, error) {
	defer parent.Child("search").End()
	opt := t.Opt.withDefaults()
	gaOpt := t.obsGA(opt.GA)
	gaOpt.Seed = gaSeed
	// Each block's genomes are expanded and guard-vetted one by one; the
	// survivors are scored together in one model.PredictBatch call.
	var rejected atomic.Int64
	obj := func(X [][]float64, out []float64) {
		rows := make([][]float64, 0, len(X))
		at := make([]int, 0, len(X))
		for i, vec := range X {
			full, err := ss.ExpandVector(vec)
			if err != nil {
				out[i] = guardPenalty
				continue
			}
			if guard != nil && guard(full, dsizeMB) {
				rejected.Add(1)
				out[i] = guardPenalty
				continue
			}
			rows = append(rows, append(full.Vector(), dsizeMB))
			at = append(at, i)
		}
		preds := make([]float64, len(rows))
		model.PredictBatch(m, rows, preds)
		for k, i := range at {
			out[i] = preds[k]
		}
	}
	start := time.Now()
	res := runSearcher(opt.Searcher, ss.Tunable, obj, subspaceSeeds(ss, set), gaOpt)
	elapsed := time.Since(start).Seconds()
	if res.BestFitness >= guardPenalty {
		return onlineSearch{}, fmt.Errorf("core: the safety guard rejected every candidate in the screened subspace")
	}
	cfg, err := ss.ExpandVector(res.Best)
	if err != nil {
		return onlineSearch{}, fmt.Errorf("core: online search result: %w", err)
	}
	return onlineSearch{cfg: cfg, pred: res.BestFitness, rejected: int(rejected.Load()), sec: elapsed}, nil
}

// subspaceSeeds projects the best observed rows into the subspace to
// seed the GA population — the online analogue of §3.3's training-set
// seeding, biased toward measurements instead of sampled at random.
func subspaceSeeds(ss *conf.SubSpace, set *dataset.Set) [][]float64 {
	n := set.Len()
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return set.Vectors[order[a]].TimeSec < set.Vectors[order[b]].TimeSec
	})
	k := 10
	if k > n {
		k = n
	}
	out := make([][]float64, 0, k)
	for _, i := range order[:k] {
		vec, err := ss.ProjectVector(set.Vectors[i].Conf)
		if err != nil {
			continue
		}
		out = append(out, vec)
	}
	return out
}

// onlineCandidates assembles one iteration's measurement batch: the
// search winner itself, mutations of it (exploit), and fresh random
// subspace samples (explore), every one vetted by the guard with bounded
// resampling. A slot whose every attempt is vetoed falls back to the
// frozen-default expansion — always a sane, runnable configuration.
func onlineCandidates(ss *conf.SubSpace, best conf.Config, n int, rng *rand.Rand, guard OOMGuard, dsizeMB float64, rejections *int) []conf.Config {
	out := make([]conf.Config, 0, n)
	out = append(out, best)
	bestVec, err := ss.ProjectVector(best.Vector())
	if err != nil {
		bestVec = ss.Tunable.Default().Vector()
	}
	d := ss.Tunable.Len()
	for len(out) < n {
		exploit := len(out) <= n/2
		var cand conf.Config
		ok := false
		for try := 0; try < 16 && !ok; try++ {
			var tv []float64
			if exploit {
				tv = append([]float64(nil), bestVec...)
				donor := ss.Tunable.Random(rng).Vector()
				for j, nmut := 0, 1+rng.Intn(2); j < nmut; j++ {
					p := rng.Intn(d)
					tv[p] = donor[p]
				}
			} else {
				tv = ss.Tunable.Random(rng).Vector()
			}
			full, err := ss.ExpandVector(tv)
			if err != nil {
				continue
			}
			if guard != nil && guard(full, dsizeMB) {
				*rejections++
				continue
			}
			cand, ok = full, true
		}
		if !ok {
			cand, _ = ss.Expand(ss.Tunable.Default())
		}
		out = append(out, cand)
	}
	return out
}
