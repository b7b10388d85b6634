// Benchmarks regenerating every table and figure of the paper at reduced
// scale (see cmd/experiments for the paper-scale settings), plus the
// ablation benchmarks for the design choices called out in DESIGN.md §5.
// Custom metrics attached to each benchmark report the experiment's
// headline quantity (speedups, error percentages, growth factors) so
// `go test -bench . -benchmem` doubles as a results summary.
package dac_test

import (
	"math/rand"
	"sync"
	"testing"

	dac "repro"
	"repro/internal/experiments"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/rf"
	"repro/internal/sparksim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// benchScale is the reduced-cost experiment configuration shared by the
// figure benchmarks.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.NTrain = 400
	sc.NTest = 120
	sc.Fig2Runs = 120
	return sc
}

// ---- Tables -----------------------------------------------------------------

func BenchmarkTable1Applications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2ParameterSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3Overhead(b *testing.B) {
	outcomes := tuneAllOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.RenderTable3(outcomes) == "" {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(outcomes[0].Overhead.CollectClusterHours, "collect-cluster-hours")
}

// ---- Figures ----------------------------------------------------------------

func BenchmarkFig2DatasizeSensitivity(b *testing.B) {
	sc := benchScale()
	var rows []experiments.Fig2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig2(sc)
	}
	b.ReportMetric(rows[0].GrowthFactor, "sparkKM-growth")
	b.ReportMetric(rows[1].GrowthFactor, "hadoopKM-growth")
}

func BenchmarkFig3BaselineModelError(b *testing.B) {
	sc := benchScale()
	var rows []experiments.ModelErrRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig3(sc)
	}
	avg := rows[len(rows)-1]
	b.ReportMetric(avg.Err["RF"], "RF-avg-err-pct")
	b.ReportMetric(avg.Err["SVM"], "SVM-avg-err-pct")
}

func BenchmarkFig7TrainingSetSize(b *testing.B) {
	sc := benchScale()
	var pts []experiments.Fig7Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig7(sc, []int{100, 200, 400})
	}
	b.ReportMetric(pts[len(pts)-1].Mean, "final-mean-err-pct")
}

func BenchmarkFig8HMHyperparams(b *testing.B) {
	sc := benchScale()
	var curves []experiments.Fig8Curve
	for i := 0; i < b.N; i++ {
		curves = experiments.Fig8(sc, []float64{0.01, 0.05}, []int{1, 5}, []int{100, 400})
	}
	b.ReportMetric(curves[len(curves)-1].Err[len(curves[len(curves)-1].Err)-1], "tc5-final-err-pct")
}

func BenchmarkFig9ModelComparison(b *testing.B) {
	sc := benchScale()
	var rows []experiments.ModelErrRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig9(sc)
	}
	avg := rows[len(rows)-1]
	b.ReportMetric(avg.Err["HM"], "HM-avg-err-pct")
	b.ReportMetric(avg.Err["RF"], "RF-avg-err-pct")
}

func BenchmarkFig10ErrorScatter(b *testing.B) {
	sc := benchScale()
	var pr []experiments.Fig10Pair
	for i := 0; i < b.N; i++ {
		pr, _ = experiments.Fig10(sc, 60)
	}
	errs := make([]float64, len(pr))
	for i, p := range pr {
		errs[i] = model.RelErr(p.PredSec, p.RealSec)
	}
	b.ReportMetric(stats.Mean(errs)*100, "PR-scatter-err-pct")
}

// tuneAllOnce caches the expensive end-to-end tuning shared by the
// Fig. 11–14 and Table 3 benchmarks.
var (
	tuneOnce     sync.Once
	tuneOutcomes []experiments.TuneOutcome
)

func tuneAllOnce(b *testing.B) []experiments.TuneOutcome {
	b.Helper()
	tuneOnce.Do(func() {
		tuneOutcomes = experiments.TuneAll(benchScale())
	})
	return tuneOutcomes
}

func BenchmarkFig11GAConvergence(b *testing.B) {
	outcomes := tuneAllOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.RenderFig11(outcomes) == "" {
			b.Fatal("empty render")
		}
	}
	b.ReportMetric(float64(outcomes[0].GA.Converged), "PR-converge-iter")
}

func BenchmarkFig12Speedups(b *testing.B) {
	outcomes := tuneAllOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.RenderFig12a(outcomes) == "" || experiments.RenderFig12b(outcomes) == "" {
			b.Fatal("empty render")
		}
	}
	var speedups []float64
	for _, o := range outcomes {
		for j := range o.DACSec {
			speedups = append(speedups, o.DefaultSec[j]/o.DACSec[j])
		}
	}
	b.ReportMetric(stats.Mean(speedups), "avg-speedup-vs-default")
	b.ReportMetric(stats.GeoMean(speedups), "geomean-speedup-vs-default")
}

func BenchmarkFig13KMeansStages(b *testing.B) {
	outcomes := tuneAllOnce(b)
	idx := []int{0, 2, 4}
	var data map[int][]experiments.Fig13Stage
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data = experiments.Fig13(benchScale(), outcomes, idx)
	}
	cells := data[4]
	b.ReportMetric(cells[0].GCSec, "default-GC-sec-D5")
	b.ReportMetric(cells[2].GCSec, "DAC-GC-sec-D5")
}

func BenchmarkFig14TeraSortStage2(b *testing.B) {
	outcomes := tuneAllOnce(b)
	var rows []experiments.Fig14Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig14(benchScale(), outcomes)
	}
	// Last row is DAC at D5; first is default at D1.
	b.ReportMetric(rows[len(rows)-1].Stage2, "DAC-stage2-sec-D5")
	b.ReportMetric(rows[2].Stage2, "DAC-stage2-sec-D1")
}

// ---- Ablations (DESIGN.md §5) ------------------------------------------------

// BenchmarkAblationHMOrder compares HM at order 1, HM allowed to recurse,
// and a plain random forest on the same data.
func BenchmarkAblationHMOrder(b *testing.B) {
	w, _ := workloads.ByAbbr("PR")
	train := collectBench(w, 500, 1)
	test := collectBench(w, 150, 2)
	var e1, e2, eRF float64
	for i := 0; i < b.N; i++ {
		m1, err := hm.Train(train, hm.Options{Trees: 400, LearningRate: 0.1, TreeComplexity: 5, MaxOrder: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		m2, err := hm.Train(train, hm.Options{Trees: 400, LearningRate: 0.1, TreeComplexity: 5,
			MaxOrder: 3, TargetAccuracy: 0.97, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		mRF, err := rf.Train(train, rf.Options{Trees: 150, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		e1 = model.Evaluate(m1, test).Mean * 100
		e2 = model.Evaluate(m2, test).Mean * 100
		eRF = model.Evaluate(mRF, test).Mean * 100
	}
	b.ReportMetric(e1, "order1-err-pct")
	b.ReportMetric(e2, "orderN-err-pct")
	b.ReportMetric(eRF, "rf-err-pct")
}

// BenchmarkAblationSearchers compares GA against recursive random search,
// pattern search, and plain random sampling on the same trained model
// with equal evaluation budgets (§3.3's argument for GA).
func BenchmarkAblationSearchers(b *testing.B) {
	w, _ := workloads.ByAbbr("TS")
	train := collectBench(w, 500, 3)
	m, err := hm.Train(train, hm.Options{Trees: 400, LearningRate: 0.1, TreeComplexity: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	space := dac.StandardSpace()
	target := w.InputMB(30)
	// The row is allocated per call: GA and random search score disjoint
	// chunks concurrently.
	obj := dac.ScalarObjective(func(v []float64) float64 {
		return m.Predict(append(append(make([]float64, 0, len(v)+1), v...), target))
	})
	const budget = 2000
	var gaBest, rrsBest, patBest, rndBest, annBest float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gaRes := dac.GAMinimize(space, obj, nil, dac.GAOptions{PopSize: 40, Generations: budget/40 - 1, Seed: 1})
		gaBest = gaRes.BestFitness
		rrsBest = dac.RecursiveRandomSearch(space, obj, budget, 1).BestFitness
		patBest = dac.PatternSearch(space, obj, budget, 1).BestFitness
		rndBest = dac.RandomSearch(space, obj, budget, 1).BestFitness
		annBest = dac.AnnealSearch(space, obj, budget, 1).BestFitness
	}
	b.ReportMetric(gaBest, "GA-best-sec")
	b.ReportMetric(rrsBest, "RRS-best-sec")
	b.ReportMetric(patBest, "pattern-best-sec")
	b.ReportMetric(rndBest, "random-best-sec")
	b.ReportMetric(annBest, "anneal-best-sec")
}

// BenchmarkAblationDatasizeFeature trains HM with and without the dsize
// column — the paper's core thesis is that the column matters.
func BenchmarkAblationDatasizeFeature(b *testing.B) {
	w, _ := workloads.ByAbbr("KM")
	train := collectBench(w, 500, 4)
	test := collectBench(w, 150, 5)
	// Strip the final (dsize) column for the blind variant.
	strip := func(ds *model.Dataset) *model.Dataset {
		out := model.NewDataset(ds.Names[:len(ds.Names)-1])
		for i, row := range ds.Features {
			out.Add(row[:len(row)-1], ds.Targets[i])
		}
		return out
	}
	blindTrain, blindTest := strip(train), strip(test)
	opt := hm.Options{Trees: 400, LearningRate: 0.1, TreeComplexity: 5, Seed: 1}
	var with, without float64
	for i := 0; i < b.N; i++ {
		mW, err := hm.Train(train, opt)
		if err != nil {
			b.Fatal(err)
		}
		mB, err := hm.Train(blindTrain, opt)
		if err != nil {
			b.Fatal(err)
		}
		with = model.Evaluate(mW, test).Mean * 100
		without = model.Evaluate(mB, blindTest).Mean * 100
	}
	b.ReportMetric(with, "with-dsize-err-pct")
	b.ReportMetric(without, "without-dsize-err-pct")
}

// BenchmarkAblationSimMechanisms disables the simulator's GC, spill and
// OOM mechanisms one at a time and reports how much of the default
// configuration's pathology each produces.
func BenchmarkAblationSimMechanisms(b *testing.B) {
	w, _ := workloads.ByAbbr("WC")
	cl := dac.StandardCluster()
	cfg := dac.StandardSpace().Default()
	mb := w.InputMB(160)
	variants := map[string]sparksim.Options{
		"full":    {},
		"noGC":    {DisableGC: true},
		"noSpill": {DisableSpill: true, DisableOOM: true},
		"noOOM":   {DisableOOM: true},
	}
	times := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, opt := range variants {
			sim := &sparksim.Simulator{Cluster: cl, Seed: 1, Opt: opt}
			times[name] = sim.Run(&w.Program, mb, cfg).TotalSec
		}
	}
	b.ReportMetric(times["full"], "full-sec")
	b.ReportMetric(times["noGC"], "noGC-sec")
	b.ReportMetric(times["noSpill"], "noSpill-sec")
}

// BenchmarkAblationSampling compares the paper's uniform configuration
// generator against Latin hypercube sampling at the same collecting
// budget, reporting each design's HM test error.
func BenchmarkAblationSampling(b *testing.B) {
	w, _ := workloads.ByAbbr("TS")
	cl := dac.StandardCluster()
	test := collectBench(w, 150, 9)
	var uniErr, lhsErr float64
	for i := 0; i < b.N; i++ {
		run := func(s dac.Sampler) float64 {
			tuner := dac.NewTuner(w, cl, dac.Options{
				NTrain: 400,
				HM:     dac.HMOptions{Trees: 300, LearningRate: 0.1, TreeComplexity: 5},
				Seed:   1,
			})
			tuner.Opt.Sampler = s
			sizes := tuner.TrainingSizesMB(w.InputMB(10), w.InputMB(50))
			set, _, err := tuner.Collect(sizes)
			if err != nil {
				b.Fatal(err)
			}
			m, _, err := tuner.Model(set)
			if err != nil {
				b.Fatal(err)
			}
			return dac.Evaluate(m, test).Mean * 100
		}
		uniErr = run(dac.UniformSampler{})
		lhsErr = run(dac.LatinHypercubeSampler{})
	}
	b.ReportMetric(uniErr, "uniform-err-pct")
	b.ReportMetric(lhsErr, "lhs-err-pct")
}

// BenchmarkAblationRobustSearch compares plain model-minimizing search
// against the uncertainty-penalized variant (an extension motivated by the
// reproduction's Fig. 12b analysis): both tune TeraSort for 30 GB, and the
// metrics report the *measured* time of each argmin configuration.
func BenchmarkAblationRobustSearch(b *testing.B) {
	w, _ := workloads.ByAbbr("TS")
	cl := dac.StandardCluster()
	target := w.InputMB(30)
	var plainSec, robustSec float64
	for i := 0; i < b.N; i++ {
		run := func(robust bool) float64 {
			opt := dac.Options{
				NTrain: 500,
				HM:     dac.HMOptions{Trees: 300, LearningRate: 0.1, TreeComplexity: 5},
				GA:     dac.GAOptions{PopSize: 40, Generations: 30},
				Seed:   1,
			}
			opt.RobustSearch = robust
			tuner := dac.NewTuner(w, cl, opt)
			res, err := tuner.Tune(w.InputMB(10), w.InputMB(50), []float64{target})
			if err != nil {
				b.Fatal(err)
			}
			evalSim := dac.NewSimulator(cl, 55)
			return evalSim.Run(&w.Program, target, res.Best[target]).TotalSec
		}
		plainSec = run(false)
		robustSec = run(true)
	}
	b.ReportMetric(plainSec, "plain-argmin-sec")
	b.ReportMetric(robustSec, "robust-argmin-sec")
}

// BenchmarkExtensionKVStore runs the §2.1 generality extension: the same
// pipeline tuning the HBase-style key-value store.
func BenchmarkExtensionKVStore(b *testing.B) {
	w := dac.KVReadHeavy()
	var speedup float64
	for i := 0; i < b.N; i++ {
		tuner := dac.NewKVTuner(w, dac.Options{
			NTrain: 300,
			HM:     dac.HMOptions{Trees: 150, LearningRate: 0.1, TreeComplexity: 5},
			GA:     dac.GAOptions{PopSize: 25, Generations: 15},
			Seed:   1,
		})
		target := 20.0 * 1024
		res, err := tuner.Tune(10*1024, 100*1024, []float64{target})
		if err != nil {
			b.Fatal(err)
		}
		sim := dac.NewKVSimulator(55)
		speedup = sim.Run(w, target, dac.KVSpace().Default()) / sim.Run(w, target, res.Best[target])
	}
	b.ReportMetric(speedup, "kv-speedup-vs-default")
}

// collectBench gathers a bench-sized dataset through the public facade.
func collectBench(w *workloads.Workload, n int, seed int64) *model.Dataset {
	sim := dac.NewSimulator(dac.StandardCluster(), 42)
	space := dac.StandardSpace()
	rng := rand.New(rand.NewSource(seed))
	set := dac.NewPerfSet(space)
	lo, hi := w.Sizes[0]*0.8, w.Sizes[len(w.Sizes)-1]*1.1
	for i := 0; i < n; i++ {
		cfg := space.Random(rng)
		units := lo + rng.Float64()*(hi-lo)
		mb := w.InputMB(units)
		set.Add(cfg, mb, sim.Run(&w.Program, mb, cfg).TotalSec)
	}
	return set.ToDataset()
}
