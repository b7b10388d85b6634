package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// evalSimSeed is the held-out simulator seed tuned configurations are
// judged on — the one `dac tune` reports its speedups against, distinct
// from every training simulator (seed+7).
const evalSimSeed = 99

// tuneOutcome is one paper-budget tune: its tuned vector per Table 1 size,
// its collecting cost, and the wall-clock split the benchmark measured
// around the pipeline's public entry points.
type tuneOutcome struct {
	best                 [][]float64
	mdl                  model.Model
	clusterH             float64
	collect, fit, search time.Duration
}

// paperTune runs one tune_paper op: a paper-budget DAC tune of w for its
// five Table 1 sizes, trained over [0.8·D1, 1.1·D5] as experiments.TuneAll
// does, on the batched SimExecutor the CLI and the daemon use. It drives
// core.Tuner.Collect and TuneCollected (whose output is Tune's for the
// same seed) so the progress callback splits model from search time.
func paperTune(space *conf.Space, w *workloads.Workload, seed int64, reg *obs.Registry) (tuneOutcome, error) {
	sim := sparksim.New(cluster.Standard(), seed+7)
	sim.Instrument(reg)
	b := experiments.PaperBudget()
	t := &core.Tuner{
		Space: space,
		Exec:  core.NewSimExecutor(sim, &w.Program),
		Opt:   core.Options{NTrain: b.NTrain, HM: b.HM, GA: b.GA, Seed: seed},
		Obs:   reg,
	}
	targets := w.SizesMB()
	sizes := t.TrainingSizesMB(targets[0]*0.8, targets[len(targets)-1]*1.1)

	t0 := time.Now()
	set, ov, err := t.Collect(sizes)
	if err != nil {
		return tuneOutcome{}, err
	}
	t1 := time.Now()
	tModel := t1
	res, err := t.TuneCollected(set, ov, targets, func(phase string, done, total int) {
		if phase == "model" {
			tModel = time.Now()
		}
	})
	if err != nil {
		return tuneOutcome{}, err
	}
	t2 := time.Now()

	out := tuneOutcome{
		mdl:      res.Model,
		clusterH: res.Overhead.CollectClusterHours,
		collect:  t1.Sub(t0),
		fit:      tModel.Sub(t1),
		search:   t2.Sub(tModel),
	}
	for _, mb := range targets {
		v := res.Best[mb].Vector()
		if err := legalVector(space, v); err != nil {
			return out, fmt.Errorf("%s seed %d size %.0f MB: %w", w.Abbr, seed, mb, err)
		}
		if p := res.PredictedSec[mb]; !(p > 0) || math.IsInf(p, 0) {
			return out, fmt.Errorf("%s seed %d size %.0f MB: predicted time %v", w.Abbr, seed, mb, p)
		}
		out.best = append(out.best, v)
	}
	return out, nil
}

// legalVector reports whether v is a legal point of space: the right
// length, and every component already at its clamped (in range, rounded
// where discrete) value.
func legalVector(space *conf.Space, v []float64) error {
	if len(v) != space.Len() {
		return fmt.Errorf("config has %d values, want %d", len(v), space.Len())
	}
	for i, x := range v {
		p := space.Param(i)
		if math.IsNaN(x) || p.Clamp(x) != x {
			return fmt.Errorf("config value %v is not legal for %s", x, p.Name)
		}
	}
	return nil
}

// speedups evaluates tuned vectors against the default configuration on
// the held-out simulator: default time over tuned time, per size.
func speedups(space *conf.Space, w *workloads.Workload, sizesMB []float64, best [][]float64) ([]float64, error) {
	sim := sparksim.New(cluster.Standard(), evalSimSeed)
	out := make([]float64, 0, len(sizesMB))
	for i, mb := range sizesMB {
		cfg, err := space.FromVector(best[i])
		if err != nil {
			return nil, err
		}
		def := sim.Run(&w.Program, mb, space.Default()).TotalSec
		tuned := sim.Run(&w.Program, mb, cfg).TotalSec
		out = append(out, def/tuned)
	}
	return out, nil
}

// digest fingerprints tuned vectors bit for bit, so the traced and the
// untraced run of one seed can be compared from their output.
func digest(vecs [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vecs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sameVectors reports whether two tunes returned bit-identical configs.
func sameVectors(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// flatten concatenates per-program config lists in program order.
func flatten(perProg [][][]float64) [][]float64 {
	var out [][]float64
	for _, v := range perProg {
		out = append(out, v...)
	}
	return out
}

// abbrs lists the programs' abbreviations.
func abbrs(progs []*workloads.Workload) []string {
	out := make([]string, len(progs))
	for i, w := range progs {
		out[i] = w.Abbr
	}
	return out
}

// runTunePaper is the tune_paper workload: a closed loop of one caller
// running paper-budget tunes of the six HiBench programs in the fixed
// order PR, KM, BA, NW, WC, TS.
//
// Its timed work is a fixed reference cycle, the same at every --seed: one
// tune per program, each at its own seed derived from fixedSeed, repeated
// for the window. A tune's cost follows the number of trees boosting
// settles on, which varies about twofold from seed to seed, and a window
// holds too few tunes to average that out. Each program's median tune
// time over the window's cycles is what the timing metrics report, so a
// burst of host noise moves at most the cycles it hits.
//
// The seed drives the quality cycle: one untimed tune per program at a
// seed derived from --seed and the program's index, run before the
// window. tuned_speedup_gmean and collect_cluster_h are computed over it.
func runTunePaper(cfg runConfig) (*report, error) {
	rep := newReport()
	space := conf.StandardSpace()
	progs := workloads.All()
	ts, err := workloads.ByAbbr("TS")
	if err != nil {
		return nil, err
	}

	// Set-up: warm-up tunes of TS at one warm-up seed, alternately
	// untraced and traced. Besides warming the heap and code paths, this
	// checks that tracing never changes a tuned configuration.
	warmSeed := deriveSeed(fixedSeed, "tune_paper/warmup", 0)
	var setups []float64
	var ref [][]float64
	for k := 0; k < setupReps; k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		var reg *obs.Registry
		if k%2 == 1 {
			reg = obs.NewRegistry()
		}
		out, err := paperTune(space, ts, warmSeed, reg)
		if err != nil {
			return nil, fmt.Errorf("warm-up tune: %w", err)
		}
		if k == 0 {
			ref = out.best
		} else if !sameVectors(ref, out.best) {
			rep.problem("warm-up tune %d (traced=%v) returned a different configuration than the untraced one at seed %d", k, reg != nil, warmSeed)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.note("setup: %d warm-up TS tunes at seed %d, durations %.3f s (first counted from process start); traced and untraced configs identical: %v",
		setupReps, warmSeed, setups, len(rep.problems) == 0)

	// Quality cycle: the seed's own tunes, untimed. It fixes the op set
	// tuned_speedup_gmean and collect_cluster_h are computed over, so they
	// repeat exactly at one seed whatever the run length.
	var all []float64
	var clusterH float64
	var qualityBest [][]float64
	for i, w := range progs {
		seed := deriveSeed(cfg.seed, "tune_paper", i)
		rep.attempted++
		out, err := paperTune(space, w, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("quality tune of %s: %w", w.Abbr, err)
		}
		sp, err := speedups(space, w, w.SizesMB(), out.best)
		if err != nil {
			return nil, err
		}
		all = append(all, sp...)
		clusterH += out.clusterH
		qualityBest = append(qualityBest, out.best...)
	}
	gm, err := geoMean(all)
	if err != nil {
		return nil, err
	}
	rep.e2e["tuned_speedup_gmean"] = gm
	rep.e2e["collect_cluster_h"] = clusterH / float64(len(progs))
	rep.note("fixed op set: quality cycle at seeds from --seed, %d program-size pairs, config digest %s; speedups on held-out simulator seed %d",
		len(all), digest(qualityBest), evalSimSeed)

	// Measured window: the reference cycle, repeated. Every repetition of
	// a reference tune must return the first cycle's configuration bit for
	// bit. In a traced run every even cycle runs on the registry and every
	// odd one without it; obs.overhead_pct compares the two.
	refSeeds := make([]int64, len(progs))
	for i := range progs {
		refSeeds[i] = deriveSeed(fixedSeed, "tune_paper/reference", i)
	}
	reg := obs.NewRegistry()
	type cycle struct {
		dur    time.Duration
		traced bool
	}
	var cycles []cycle
	refBest := make([][][]float64, len(progs))
	wallMs := make([][]float64, len(progs)) // per program, per cycle
	cpuMs := make([][]float64, len(progs))
	var phaseCollect, phaseModel, phaseSearch time.Duration
	winStart := time.Now()
	for c := 0; ; c++ {
		traced := cfg.trace && c%2 == 0
		var r *obs.Registry
		if traced {
			r = reg
		}
		cStart := time.Now()
		for i, w := range progs {
			rep.attempted++
			t0, cpu0 := time.Now(), readUsage().cpu
			out, err := paperTune(space, w, refSeeds[i], r)
			wall, cpu := time.Since(t0), readUsage().cpu-cpu0
			if err != nil {
				rep.failed++
				rep.problem("reference tune of %s in cycle %d: %v", w.Abbr, c, err)
				continue
			}
			if refBest[i] == nil {
				refBest[i] = out.best
			} else if !sameVectors(refBest[i], out.best) {
				rep.failed++
				rep.problem("reference tune of %s in cycle %d (traced=%v) returned a different configuration than its first run", w.Abbr, c, traced)
				continue
			}
			wallMs[i] = append(wallMs[i], wall.Seconds()*1000)
			cpuMs[i] = append(cpuMs[i], cpu.Seconds()*1000)
			phaseCollect += out.collect
			phaseModel += out.fit
			phaseSearch += out.search
		}
		cycles = append(cycles, cycle{dur: time.Since(cStart), traced: traced})
		// Stop at the first cycle boundary past the requested length, so
		// the cycle count, and with it which sample the medians pick, does
		// not flip with small changes in speed; a traced run needs one
		// cycle of each kind.
		if time.Since(winStart) >= cfg.seconds && (!cfg.trace || len(cycles) >= 2) {
			break
		}
	}
	window := time.Since(winStart)

	// Each program's median tune over the cycles; the mix weighs the six
	// programs equally, as a cycle does.
	medWall := make([]float64, len(progs))
	medCPU := make([]float64, len(progs))
	for i, w := range progs {
		if len(wallMs[i]) == 0 {
			return nil, fmt.Errorf("no reference tune of %s succeeded", w.Abbr)
		}
		medWall[i], medCPU[i] = median(wallMs[i]), median(cpuMs[i])
	}
	opMs := mean(medWall)
	tailMs := 0.0
	for _, v := range medWall {
		tailMs = math.Max(tailMs, v)
	}
	rep.e2e["ops_per_s"] = 1000 / opMs
	rep.e2e["op_ms_p50"] = opMs
	rep.e2e["op_ms_tail"] = tailMs
	rep.e2e["cpu_ms_per_op"] = mean(medCPU)
	var cycleMs []float64
	for _, cy := range cycles {
		cycleMs = append(cycleMs, cy.dur.Seconds()*1000/float64(len(progs)))
	}
	rep.note("measured: %d reference cycles over %.3f s (%.4f tunes/s over the whole window); per-cycle mean ms per tune %.1f; median ms per tune by program %s %.1f, CPU ms %.1f. op_ms_p50 is the mean of the programs' medians and ops_per_s its inverse, op_ms_tail the slowest program's median, cpu_ms_per_op the mean of the programs' median CPU",
		len(cycles), window.Seconds(), float64(len(cycles)*len(progs))/window.Seconds(), cycleMs, abbrs(progs), medWall, medCPU)
	rep.note("reference cycle: seeds %v, config digest %s", refSeeds, digest(flatten(refBest)))
	total := (phaseCollect + phaseModel + phaseSearch).Seconds()
	rep.note("phase split over all measured tunes (benchmark-side clocks around Collect / TuneCollected): collect %.1f%%, model %.1f%%, search %.1f%%",
		100*phaseCollect.Seconds()/total, 100*phaseModel.Seconds()/total, 100*phaseSearch.Seconds()/total)

	rep.layer["op_ms_first_quarter"] = cycleMs[0]
	rep.layer["op_ms_last_quarter"] = cycleMs[len(cycleMs)-1]
	rep.note("drift: first cycle %.1f ms per tune, last cycle %.1f ms per tune", cycleMs[0], cycleMs[len(cycleMs)-1])

	if cfg.trace {
		var tracedDur, plainDur time.Duration
		var tracedN, plainN int
		for _, cy := range cycles {
			if cy.traced {
				tracedDur += cy.dur
				tracedN++
			} else {
				plainDur += cy.dur
				plainN++
			}
		}
		tracedOps := tracedN * len(progs)
		pipelineLayers(rep, reg.Snapshot(), tracedOps, experiments.PaperBudget().GA.PopSize)
		rep.layer["obs.overhead_pct"] = 100 * (ratio(tracedDur.Seconds(), float64(tracedN))/ratio(plainDur.Seconds(), float64(plainN)) - 1)
		rep.note("tracing: %d traced and %d untraced cycles", tracedN, plainN)
	}
	return rep, nil
}

// pipelineLayers fills the collect, model and search layer metrics from a
// traced registry covering ops operations. popSize is the GA population
// the ops searched with, the base of the genome-cache hit ratio.
func pipelineLayers(rep *report, snap obs.Snapshot, ops int, popSize int) {
	flat := flattenSpans(snap.Spans)
	n := float64(ops)
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	h := func(name string) obs.HistogramSnapshot { return snap.Histograms[name] }

	rep.layer["core.collect_s"] = ratio(spanTotal(flat, "collect"), n)
	rep.layer["sparksim.runs"] = ratio(c("sparksim.runs"), n)
	rep.layer["sparksim.run_us"] = h("sparksim.run.wallsec").Mean * 1e6
	rep.layer["hm.model_s"] = ratio(h("hm.fit.sec").Sum+h("hm.resume.sec").Sum, n)
	rep.layer["tree.grow_s"] = ratio(spanTotal(flat, "tree.grow"), n)
	rep.layer["hm.trees"] = ratio(c("hm.trees"), n)
	built, sub := c("tree.hist.built"), c("tree.hist.subtracted")
	rep.layer["tree.hist.subtract_ratio"] = ratio(sub, built+sub)
	rep.layer["hm.resume_ms"] = h("hm.resume.sec").Mean * 1000
	rep.layer["ga.search_s"] = ratio(spanTotal(flat, "tune/search"), n)
	rep.layer["ga.evaluations"] = ratio(c("ga.evaluations"), n)
	lookups := float64(popSize) * (c("ga.generations") + c("ga.runs"))
	rep.layer["ga.cache_hit_ratio"] = ratio(lookups-c("ga.evaluations"), lookups)
	rep.layer["model.predict_us"] = h("model.predict.sec").Mean * 1e6

	rep.note("ratio bases: tree.hist.subtract_ratio = %.0f subtracted / %.0f histograms (built+subtracted); ga.cache_hit_ratio = 1 - %.0f evaluations / %.0f genome lookups (pop %d x (generations+runs)); per-op figures over %d traced ops",
		sub, built+sub, c("ga.evaluations"), lookups, popSize, ops)
	rep.note("span self times (traced ops; spans aggregate by name, totals of concurrent spans add up busy time):\n%s", renderSpans(flat))
}
