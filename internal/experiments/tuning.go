package experiments

import (
	"fmt"
	"strings"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/expert"
	"repro/internal/ga"
	"repro/internal/sparksim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TuneOutcome is the end-to-end tuning result for one workload: the
// configurations produced by each approach and their measured execution
// times at the five Table 1 dataset sizes (fresh simulator seed, so the
// evaluation runs are not the training runs).
type TuneOutcome struct {
	Workload *workloads.Workload
	// Per Table 1 size (D1..D5):
	DefaultSec []float64
	ExpertSec  []float64
	RFHOCSec   []float64
	DACSec     []float64
	// DACConfigs holds the per-size configurations DAC produced;
	// RFHOCConfig is the single size-blind configuration.
	DACConfigs  []conf.Config
	RFHOCConfig conf.Config
	// GA is the searcher result for the middle target size (Fig. 11).
	GA ga.Result
	// Overhead is DAC's pipeline cost (Table 3).
	Overhead core.Overhead
}

// TuneAll runs the complete §5.6 comparison for every workload: DAC,
// RFHOC, expert rules, and the default configuration, all evaluated on a
// fresh simulator seed.
func TuneAll(sc Scale) []TuneOutcome {
	space := conf.StandardSpace()
	evalSim := sparksim.New(sc.Cluster, 77) // evaluation runs, not training runs
	out := make([]TuneOutcome, 0, 6)

	for wi, w := range workloads.All() {
		seed := sc.Seed + int64(wi)*100
		opt := core.Options{
			NTrain: sc.NTrain,
			HM:     sc.HM,
			GA:     sc.GA,
			Seed:   seed,
		}
		trainSim := sparksim.New(sc.Cluster, 42)
		trainSim.Instrument(sc.Obs)
		exec := core.ExecutorFunc(func(cfg conf.Config, dsizeMB float64) float64 {
			return trainSim.Run(&w.Program, dsizeMB, cfg).TotalSec
		})

		tuner := &core.Tuner{Space: space, Exec: exec, Opt: opt, Obs: sc.Obs}
		targets := w.SizesMB()
		lo, hi := w.TrainingRangeMB()
		res, err := tuner.Tune(lo, hi, targets)
		if err != nil {
			panic(fmt.Sprintf("experiments: DAC tuning %s: %v", w.Name, err))
		}

		rfhoc := &core.RFHOCTuner{Space: space, Exec: exec, Opt: opt, Obs: sc.Obs}
		rfhocCfg, err := rfhoc.Tune(lo, hi)
		if err != nil {
			panic(fmt.Sprintf("experiments: RFHOC tuning %s: %v", w.Name, err))
		}

		o := TuneOutcome{
			Workload:    w,
			RFHOCConfig: rfhocCfg,
			GA:          res.GA[w.TargetMB(0)],
			Overhead:    res.Overhead,
		}
		defCfg := space.Default()
		expCfg := expert.Config(space, sc.Cluster)
		for _, mb := range targets {
			dacCfg := res.Best[mb]
			o.DACConfigs = append(o.DACConfigs, dacCfg)
			o.DefaultSec = append(o.DefaultSec, evalSim.Run(&w.Program, mb, defCfg).TotalSec)
			o.ExpertSec = append(o.ExpertSec, evalSim.Run(&w.Program, mb, expCfg).TotalSec)
			o.RFHOCSec = append(o.RFHOCSec, evalSim.Run(&w.Program, mb, rfhocCfg).TotalSec)
			o.DACSec = append(o.DACSec, evalSim.Run(&w.Program, mb, dacCfg).TotalSec)
		}
		out = append(out, o)
	}
	return out
}

// RenderFig11 prints each program's GA convergence: iterations to reach
// the final best fitness (paper: 48–64) plus the best-fitness curve.
func RenderFig11(outcomes []TuneOutcome) string {
	var b strings.Builder
	for _, o := range outcomes {
		fmt.Fprintf(&b, "%-3s converged at iteration %d (of %d); best predicted %.1fs\n",
			o.Workload.Abbr, o.GA.Converged, len(o.GA.History), o.GA.BestFitness)
	}
	return b.String()
}

// RenderFig12a prints the speedup of DAC over the default configuration
// for the 30 program-input pairs, with the paper's average/max headline.
func RenderFig12a(outcomes []TuneOutcome) string {
	var b strings.Builder
	var all []float64
	fmt.Fprintf(&b, "%-4s %8s %8s %8s %8s %8s\n", "prog", "D1", "D2", "D3", "D4", "D5")
	for _, o := range outcomes {
		fmt.Fprintf(&b, "%-4s", o.Workload.Abbr)
		for i := range o.DACSec {
			sp := o.DefaultSec[i] / o.DACSec[i]
			all = append(all, sp)
			fmt.Fprintf(&b, " %7.1fx", sp)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "average %.1fx, max %.1fx, geomean %.1fx (paper: avg 30.4x, max 89x, geomean 15.4x)\n",
		stats.Mean(all), stats.Max(all), stats.GeoMean(all))
	return b.String()
}

// RenderFig12b prints the execution times under DAC, RFHOC and expert
// configurations, with the geometric-mean speedups of DAC over each.
func RenderFig12b(outcomes []TuneOutcome) string {
	var b strings.Builder
	var vsRFHOC, vsExpert []float64
	fmt.Fprintf(&b, "%-4s %-3s %10s %10s %10s\n", "prog", "D", "DAC(s)", "RFHOC(s)", "expert(s)")
	for _, o := range outcomes {
		for i := range o.DACSec {
			fmt.Fprintf(&b, "%-4s D%d %10.1f %10.1f %10.1f\n",
				o.Workload.Abbr, i+1, o.DACSec[i], o.RFHOCSec[i], o.ExpertSec[i])
			vsRFHOC = append(vsRFHOC, o.RFHOCSec[i]/o.DACSec[i])
			vsExpert = append(vsExpert, o.ExpertSec[i]/o.DACSec[i])
		}
	}
	fmt.Fprintf(&b, "geomean speedup of DAC: over RFHOC %.2fx (paper 1.5x), over expert %.2fx (paper 2.3x)\n",
		stats.GeoMean(vsRFHOC), stats.GeoMean(vsExpert))
	return b.String()
}

// Fig13Stage is one (configuration, stage) cell of the KMeans breakdown.
type Fig13Stage struct {
	Config string // "default", "RFHOC", "DAC"
	Stages []sparksim.StageResult
	GCSec  float64
}

// Fig13 reproduces §5.8's KMeans per-stage analysis for the given Table 1
// size indices (the paper shows D1, D3, D5) using the configurations from
// a prior TuneAll.
func Fig13(sc Scale, outcomes []TuneOutcome, sizeIdx []int) map[int][]Fig13Stage {
	var km *TuneOutcome
	for i := range outcomes {
		if outcomes[i].Workload.Abbr == "KM" {
			km = &outcomes[i]
		}
	}
	if km == nil {
		return nil
	}
	sim := sparksim.New(sc.Cluster, 78)
	space := conf.StandardSpace()
	out := make(map[int][]Fig13Stage, len(sizeIdx))
	for _, di := range sizeIdx {
		mb := km.Workload.SizesMB()[di]
		cells := []Fig13Stage{}
		for _, c := range []struct {
			name string
			cfg  conf.Config
		}{
			{"default", space.Default()},
			{"RFHOC", km.RFHOCConfig},
			{"DAC", km.DACConfigs[di]},
		} {
			res := sim.Run(&km.Workload.Program, mb, c.cfg)
			cells = append(cells, Fig13Stage{Config: c.name, Stages: res.Stages, GCSec: res.GCSec})
		}
		out[di] = cells
	}
	return out
}

// RenderFig13 prints the stage breakdown table.
func RenderFig13(data map[int][]Fig13Stage, sizeIdx []int) string {
	var b strings.Builder
	for _, di := range sizeIdx {
		cells := data[di]
		if cells == nil {
			continue
		}
		fmt.Fprintf(&b, "D%d:\n", di+1)
		fmt.Fprintf(&b, "  %-10s", "stage")
		for _, c := range cells {
			fmt.Fprintf(&b, " %10s", c.Config)
		}
		b.WriteByte('\n')
		for si := range cells[0].Stages {
			fmt.Fprintf(&b, "  %-10s", shortStage(cells[0].Stages[si].Name))
			for _, c := range cells {
				fmt.Fprintf(&b, " %9.1fs", c.Stages[si].Sec)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  %-10s", "GC")
		for _, c := range cells {
			fmt.Fprintf(&b, " %9.1fs", c.GCSec)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func shortStage(name string) string {
	if i := strings.IndexByte(name, '-'); i > 0 {
		return name[:i]
	}
	return name
}

// Fig14Row is TeraSort's Stage2 time and GC time for one configuration
// and dataset size.
type Fig14Row struct {
	Config  string
	SizeIdx int
	Stage2  float64
	GCSec   float64
}

// Fig14 reproduces §5.8's TeraSort Stage2 analysis across D1..D5.
func Fig14(sc Scale, outcomes []TuneOutcome) []Fig14Row {
	var ts *TuneOutcome
	for i := range outcomes {
		if outcomes[i].Workload.Abbr == "TS" {
			ts = &outcomes[i]
		}
	}
	if ts == nil {
		return nil
	}
	sim := sparksim.New(sc.Cluster, 79)
	space := conf.StandardSpace()
	var rows []Fig14Row
	for di, mb := range ts.Workload.SizesMB() {
		for _, c := range []struct {
			name string
			cfg  conf.Config
		}{
			{"default", space.Default()},
			{"RFHOC", ts.RFHOCConfig},
			{"DAC", ts.DACConfigs[di]},
		} {
			res := sim.Run(&ts.Workload.Program, mb, c.cfg)
			row := Fig14Row{Config: c.name, SizeIdx: di, GCSec: res.GCSec}
			if s2 := res.Stage(ts.Workload.Program.Stages[1].Name); s2 != nil {
				row.Stage2 = s2.Sec
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderFig14 prints Stage2 and GC times per configuration and size.
func RenderFig14(rows []Fig14Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-3s %12s %10s\n", "config", "D", "stage2(s)", "GC(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s D%d %12.1f %10.1f\n", r.Config, r.SizeIdx+1, r.Stage2, r.GCSec)
	}
	return b.String()
}

// RenderTable3 prints DAC's per-workload overhead: collecting (simulated
// cluster hours), modeling (s), searching (s of wall clock for the five
// targets).
func RenderTable3(outcomes []TuneOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %12s %12s\n", "Workload", "Collecting(h)", "Modeling(s)", "Searching(s)")
	for _, o := range outcomes {
		fmt.Fprintf(&b, "%-10s %14.1f %12.1f %12.1f\n", o.Workload.Name,
			o.Overhead.CollectClusterHours, o.Overhead.ModelTrainSec, o.Overhead.SearchSec)
	}
	return b.String()
}
