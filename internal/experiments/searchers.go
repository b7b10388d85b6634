package experiments

import (
	"fmt"
	"strings"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// SearcherOutcome is one workload's head-to-head across every registered
// searcher at equal candidate budget: the training set is collected and
// the HM model trained once, then each searcher minimizes the same model
// at the same target size with the same seed slot and budget
// (PopSize×(Generations+1) candidate considerations). The tuned
// configurations are graded on a fresh evaluation simulator, so no
// searcher is graded on the surrogate it searched.
type SearcherOutcome struct {
	Workload *workloads.Workload
	TargetMB float64
	// DefaultSec is the untuned default's measured time, for scale.
	DefaultSec float64
	// Names lists the searchers in render order (registry order).
	Names []string
	// Sec is each searcher's tuned-configuration measured time.
	Sec map[string]float64
	// PredictedSec is the model's prediction for each tuned config —
	// the value the searcher actually minimized.
	PredictedSec map[string]float64
	// Evals counts each searcher's real objective evaluations (cache
	// replays excluded).
	Evals map[string]int
}

// Searchers runs the searcher head-to-head for each workload: collect
// and model once per workload, then search with every registered
// searcher. All searchers receive the same derived seed (Opt.Seed+2),
// no population seeding (equal footing — training-set seeding is a GA
// notion), and the equal candidate budget the GA options imply.
func Searchers(sc Scale, abbrs []string) []SearcherOutcome {
	space := conf.StandardSpace()
	evalSim := sparksim.New(sc.Cluster, 77)
	reg := search.Default()
	names := reg.Names()
	out := make([]SearcherOutcome, 0, len(abbrs))
	for wi, abbr := range abbrs {
		w, err := workloads.ByAbbr(abbr)
		if err != nil {
			panic(fmt.Sprintf("experiments: searcher comparison: %v", err))
		}
		seed := sc.Seed + int64(wi)*100
		target := w.TargetMB(0)
		lo, hi := w.TrainingRangeMB()

		trainSim := sparksim.New(sc.Cluster, 42)
		trainSim.Instrument(sc.Obs)
		t := &core.Tuner{
			Space: space,
			Exec:  core.NewSimExecutor(trainSim, &w.Program),
			Opt:   core.Options{NTrain: sc.NTrain, HM: sc.HM, GA: sc.GA, Seed: seed},
			Obs:   sc.Obs,
		}
		set, _, err := t.Collect(t.TrainingSizesMB(lo, hi))
		if err != nil {
			panic(fmt.Sprintf("experiments: collecting %s: %v", w.Name, err))
		}
		m, _, err := t.Model(set)
		if err != nil {
			panic(fmt.Sprintf("experiments: modeling %s: %v", w.Name, err))
		}

		o := SearcherOutcome{
			Workload:     w,
			TargetMB:     target,
			DefaultSec:   evalSim.Run(&w.Program, target, space.Default()).TotalSec,
			Names:        names,
			Sec:          make(map[string]float64, len(names)),
			PredictedSec: make(map[string]float64, len(names)),
			Evals:        make(map[string]int, len(names)),
		}
		for _, name := range names {
			s, err := reg.Lookup(name)
			if err != nil {
				panic(fmt.Sprintf("experiments: searcher %s: %v", name, err))
			}
			t.Opt.Searcher = s
			cfg, pred, res, _, err := t.Search(m, target, nil)
			if err != nil {
				panic(fmt.Sprintf("experiments: searching %s with %s: %v", w.Name, name, err))
			}
			o.Sec[name] = evalSim.Run(&w.Program, target, cfg).TotalSec
			o.PredictedSec[name] = pred
			o.Evals[name] = res.Evaluations
		}
		out = append(out, o)
	}
	return out
}

// RenderSearchers prints the per-workload quality-at-equal-budget table
// plus the two claims the head-to-head exists to check: TPE matches or
// beats Random everywhere (the BO searcher must clear the naive
// baseline), and TPE lands within 5% of the GA's tuned quality on most
// workloads (budget parity with the paper's searcher). "vs ga" is the
// measured time relative to the GA's (100% = parity, lower = faster).
func RenderSearchers(outcomes []SearcherOutcome) string {
	var b strings.Builder
	if len(outcomes) == 0 {
		return ""
	}
	names := outcomes[0].Names
	fmt.Fprintf(&b, "%-4s %11s", "prog", "default(s)")
	for _, n := range names {
		fmt.Fprintf(&b, " %10s", n+"(s)")
	}
	fmt.Fprintln(&b)
	for _, o := range outcomes {
		fmt.Fprintf(&b, "%-4s %11.1f", o.Workload.Abbr, o.DefaultSec)
		for _, n := range names {
			fmt.Fprintf(&b, " %10.1f", o.Sec[n])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-4s %11s", "", "vs ga:")
	fmt.Fprintln(&b)
	for _, o := range outcomes {
		fmt.Fprintf(&b, "%-4s %11s", o.Workload.Abbr, "")
		for _, n := range names {
			fmt.Fprintf(&b, " %9.1f%%", o.Sec[n]/o.Sec["ga"]*100)
		}
		fmt.Fprintln(&b)
	}
	tpeBeatsRandom, tpeNearGA := 0, 0
	for _, o := range outcomes {
		// "Matches" allows 1% measurement slack; "beats" needs none.
		if o.Sec["tpe"] <= o.Sec["random"]*1.01 {
			tpeBeatsRandom++
		}
		if o.Sec["tpe"] <= o.Sec["ga"]*1.05 {
			tpeNearGA++
		}
	}
	fmt.Fprintf(&b, "tpe matches or beats random: %d of %d workloads\n", tpeBeatsRandom, len(outcomes))
	fmt.Fprintf(&b, "tpe within 5%% of ga: %d of %d workloads\n", tpeNearGA, len(outcomes))
	return b.String()
}
