package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// OnlineOutcome compares the online importance-screened loop (DESIGN.md
// §14) against the full DAC pipeline for one workload at its middle
// Table 1 size: the quality each approach reaches and the number of
// cluster runs each pays for. This is the production-cost claim the
// tune_online mode makes — comparable quality at about half the runs.
type OnlineOutcome struct {
	Workload *workloads.Workload
	TargetMB float64
	// FullRuns and OnlineRuns count executed cluster runs (the dominant
	// cost — see Table 3's collecting column).
	FullRuns   int
	OnlineRuns int
	// Execution time at the target size on a fresh evaluation simulator
	// under each configuration, plus the untuned default for scale.
	DefaultSec float64
	FullSec    float64
	OnlineSec  float64
	// Screened is the parameter subset the online loop kept tunable.
	Screened        []string
	GuardRejections int
	Iterations      []core.OnlineIteration
}

// OnlineBudget derives the online loop's run budget from a scale so that
// it always pays at most half of what the full pipeline pays: ~30% of
// sc.NTrain goes to screening and the remainder of the half-price budget
// to four measure→refit→search iterations (plus the one confirmation
// run).
func OnlineBudget(sc Scale) core.OnlineOptions {
	screen := sc.NTrain * 3 / 10
	if screen < 20 {
		screen = 20
	}
	const iterations = 4
	batch := (sc.NTrain/2 - screen - 1) / iterations
	if batch < 1 {
		batch = 1
	}
	return core.OnlineOptions{
		ScreenSamples: screen,
		TopK:          10,
		Iterations:    iterations,
		IterBatch:     batch,
		ExtraTrees:    sc.HM.Trees / 4,
	}
}

// OnlineVsDAC runs both pipelines for each workload: full DAC collects
// sc.NTrain vectors then models and searches once; the online loop
// screens, freezes the insignificant parameters, and iterates under the
// OOM guard. Both are evaluated on a fresh simulator seed, so neither
// side is graded on its own training runs.
func OnlineVsDAC(sc Scale, abbrs []string) []OnlineOutcome {
	space := conf.StandardSpace()
	evalSim := sparksim.New(sc.Cluster, 77)
	out := make([]OnlineOutcome, 0, len(abbrs))
	for wi, abbr := range abbrs {
		w, err := workloads.ByAbbr(abbr)
		if err != nil {
			panic(fmt.Sprintf("experiments: online comparison: %v", err))
		}
		seed := sc.Seed + int64(wi)*100
		targets := w.SizesMB()
		target := targets[len(targets)/2]
		lo, hi := targets[0]*0.8, targets[len(targets)-1]*1.1

		newTuner := func() *core.Tuner {
			trainSim := sparksim.New(sc.Cluster, 42)
			trainSim.Instrument(sc.Obs)
			return &core.Tuner{
				Space: space,
				Exec:  core.NewSimExecutor(trainSim, &w.Program),
				Opt:   core.Options{NTrain: sc.NTrain, HM: sc.HM, GA: sc.GA, Seed: seed},
				Obs:   sc.Obs,
			}
		}

		full, err := newTuner().Tune(lo, hi, []float64{target})
		if err != nil {
			panic(fmt.Sprintf("experiments: full DAC tuning %s: %v", w.Name, err))
		}

		oo := OnlineBudget(sc)
		oo.Guard = core.SimOOMGuard(sc.Cluster, &w.Program, 0)
		online, err := newTuner().TuneOnline(context.Background(), lo, hi, target, oo, core.RowHooks{})
		if err != nil {
			panic(fmt.Sprintf("experiments: online tuning %s: %v", w.Name, err))
		}

		out = append(out, OnlineOutcome{
			Workload:        w,
			TargetMB:        target,
			FullRuns:        sc.NTrain,
			OnlineRuns:      online.TotalRuns,
			DefaultSec:      evalSim.Run(&w.Program, target, space.Default()).TotalSec,
			FullSec:         evalSim.Run(&w.Program, target, full.Best[target]).TotalSec,
			OnlineSec:       evalSim.Run(&w.Program, target, online.Best).TotalSec,
			Screened:        online.Screened,
			GuardRejections: online.GuardRejections,
			Iterations:      online.Iterations,
		})
	}
	return out
}

// RenderOnline prints the runs-vs-quality comparison. "quality" is the
// online configuration's measured time relative to full DAC's (100% =
// parity, below 100% = online found a faster configuration).
func RenderOnline(outcomes []OnlineOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %10s %10s %12s %10s %10s %10s %8s\n",
		"prog", "runs:full", "runs:onl", "default(s)", "full(s)", "online(s)", "quality", "guarded")
	met := 0
	for _, o := range outcomes {
		q := o.OnlineSec / o.FullSec
		if q <= 1.05 && o.OnlineRuns*2 <= o.FullRuns {
			met++
		}
		fmt.Fprintf(&b, "%-4s %10d %10d %12.1f %10.1f %10.1f %9.1f%% %8d\n",
			o.Workload.Abbr, o.FullRuns, o.OnlineRuns, o.DefaultSec,
			o.FullSec, o.OnlineSec, q*100, o.GuardRejections)
	}
	fmt.Fprintf(&b, "within 5%% of full-DAC quality at <= half the runs: %d of %d workloads\n",
		met, len(outcomes))
	return b.String()
}
