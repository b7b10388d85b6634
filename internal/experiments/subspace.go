package experiments

import (
	"fmt"
	"strings"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// SubspaceRow compares tuning over differently-sized parameter spaces.
type SubspaceRow struct {
	Space       string
	Params      int
	MeasuredSec float64
}

// Subspace connects the importance analysis back to tuning action: it
// tunes one workload over (a) all 41 parameters, (b) the top-k parameters
// by HM split gain, and (c) the bottom-k, all with the same budget, and
// measures the resulting configurations. The paper's premise is that the
// high dimensional space matters; this quantifies how much of the win the
// heavy hitters carry.
func Subspace(sc Scale, abbr string, k int) []SubspaceRow {
	w, err := workloads.ByAbbr(abbr)
	if err != nil {
		return nil
	}
	full := conf.StandardSpace()
	trainSim := sparksim.New(sc.Cluster, 42)
	evalSim := sparksim.New(sc.Cluster, 77)
	targetMB := w.TargetMB(0)
	lo, hi := w.TrainingRangeMB()

	// Rank parameters by importance (dsize excluded: it is a feature,
	// not a knob).
	ranked := Importance(sc, abbr, 0)
	var names []string
	for _, r := range ranked {
		if r.Feature != "dsize" {
			names = append(names, r.Feature)
		}
	}
	if len(names) < k {
		return nil
	}

	tuneOver := func(space *conf.Space, expand func(conf.Config) conf.Config) float64 {
		tuner := &core.Tuner{
			Space: space,
			Exec: core.ExecutorFunc(func(cfg conf.Config, dsizeMB float64) float64 {
				return trainSim.Run(&w.Program, dsizeMB, expand(cfg)).TotalSec
			}),
			Opt: core.Options{NTrain: sc.NTrain, HM: sc.HM, GA: sc.GA, Seed: sc.Seed + 31},
		}
		res, err := tuner.Tune(lo, hi, []float64{targetMB})
		if err != nil {
			panic(fmt.Sprintf("experiments: subspace tuning: %v", err))
		}
		return evalSim.Run(&w.Program, targetMB, expand(res.Best[targetMB])).TotalSec
	}

	rows := []SubspaceRow{}
	ident := func(c conf.Config) conf.Config { return c }
	rows = append(rows, SubspaceRow{
		Space: "all parameters", Params: full.Len(),
		MeasuredSec: tuneOver(full, ident),
	})
	mkExpand := func(sub []string) (*conf.Space, func(conf.Config) conf.Config) {
		ss, err := conf.NewSubSpace(full, full.Default(), sub)
		if err != nil {
			panic(err)
		}
		return ss.Tunable, func(c conf.Config) conf.Config {
			out, err := ss.Expand(c)
			if err != nil {
				panic(err)
			}
			return out
		}
	}
	topSpace, topExpand := mkExpand(names[:k])
	rows = append(rows, SubspaceRow{
		Space: fmt.Sprintf("top-%d by importance", k), Params: k,
		MeasuredSec: tuneOver(topSpace, topExpand),
	})
	botSpace, botExpand := mkExpand(names[len(names)-k:])
	rows = append(rows, SubspaceRow{
		Space: fmt.Sprintf("bottom-%d by importance", k), Params: k,
		MeasuredSec: tuneOver(botSpace, botExpand),
	})
	// The untouched default anchors the comparison.
	rows = append(rows, SubspaceRow{
		Space: "default (no tuning)", Params: 0,
		MeasuredSec: evalSim.Run(&w.Program, targetMB, full.Default()).TotalSec,
	})
	return rows
}

// RenderSubspace prints the comparison.
func RenderSubspace(abbr string, rows []SubspaceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (middle Table 1 size):\n", abbr)
	fmt.Fprintf(&b, "  %-26s %8s %14s\n", "tuning space", "params", "measured (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s %8d %14.1f\n", r.Space, r.Params, r.MeasuredSec)
	}
	return b.String()
}
