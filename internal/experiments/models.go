package experiments

import (
	"fmt"
	"strings"

	"repro/internal/ann"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/rf"
	"repro/internal/rs"
	"repro/internal/stats"
	"repro/internal/svm"
	"repro/internal/workloads"
)

// ModelErrRow is one program's mean Eq. 2 prediction error per modeling
// technique, in percent.
type ModelErrRow struct {
	Program string
	Err     map[string]float64
}

// baselineBackends returns RS/ANN/SVM/RF (Fig. 3's techniques) sized for
// the scale.
func baselineBackends(sc Scale) []model.Backend {
	return []model.Backend{
		rs.Backend{},
		ann.Backend{Opt: ann.Options{Epochs: annEpochs(sc)}},
		svm.Backend{},
		rf.Backend{},
	}
}

func annEpochs(sc Scale) int {
	if sc.NTrain <= 500 {
		return 120
	}
	return 400
}

// Fig3 reproduces §2.2.2: the prediction errors of the four existing
// modeling techniques on all six programs, demonstrating that none is
// accurate enough with 41 parameters + datasize.
func Fig3(sc Scale) []ModelErrRow {
	return modelErrors(sc, baselineBackends(sc))
}

// Fig9 reproduces §5.3: Fig. 3's comparison with HM added.
func Fig9(sc Scale) []ModelErrRow {
	return modelErrors(sc, append(baselineBackends(sc), hm.Backend{Opt: sc.HM}))
}

// modelErrors trains every backend with a zero model.TrainOpts, so each
// fits with exactly the Opt it was built with.
func modelErrors(sc Scale, bs []model.Backend) []ModelErrRow {
	rows := make([]ModelErrRow, 0, 7)
	avg := ModelErrRow{Program: "AVG", Err: map[string]float64{}}
	for _, w := range workloads.All() {
		train := collectDataset(sc, w, sc.NTrain, 42, sc.Seed)
		test := collectDataset(sc, w, sc.NTest, 42, sc.Seed+1000)
		row := ModelErrRow{Program: w.Abbr, Err: map[string]float64{}}
		for _, b := range bs {
			// Row keys stay the figures' uppercase technique names.
			key := strings.ToUpper(b.Name())
			m, err := b.Train(train, model.TrainOpts{})
			if err != nil {
				row.Err[key] = -1
				continue
			}
			e := model.Evaluate(m, test).Mean * 100
			row.Err[key] = e
			avg.Err[key] += e / float64(len(workloads.All()))
		}
		rows = append(rows, row)
	}
	return append(rows, avg)
}

// RenderModelErrs prints the per-program error table in the figures'
// order.
func RenderModelErrs(rows []ModelErrRow, names []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "program")
	for _, n := range names {
		fmt.Fprintf(&b, " %8s", n)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Program)
		for _, n := range names {
			fmt.Fprintf(&b, " %7.1f%%", r.Err[n])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig7Point is one training-set-size step of the error curve.
type Fig7Point struct {
	NTrain         int
	Mean, Max, Min float64 // percent, across the experimented programs
}

// Fig7 reproduces §5.1: performance-model error as a function of the
// number of training examples, aggregated over the programs. steps are
// the ntrain values (the paper sweeps 200..3200 by 200).
func Fig7(sc Scale, steps []int) []Fig7Point {
	maxN := steps[len(steps)-1]
	out := make([]Fig7Point, 0, len(steps))
	type curve struct{ errs []float64 }
	curves := make([][]float64, 0, len(workloads.All()))
	for _, w := range workloads.All() {
		full := collectDataset(sc, w, maxN, 42, sc.Seed)
		test := collectDataset(sc, w, sc.NTest, 42, sc.Seed+1000)
		errs := make([]float64, len(steps))
		for i, n := range steps {
			sub := full.Subset(seqIdx(n))
			m, err := hm.Train(sub, sc.HM)
			if err != nil {
				errs[i] = 100
				continue
			}
			errs[i] = model.Evaluate(m, test).Mean * 100
		}
		curves = append(curves, errs)
	}
	for i, n := range steps {
		col := make([]float64, len(curves))
		for j, c := range curves {
			col[j] = c[i]
		}
		out = append(out, Fig7Point{
			NTrain: n,
			Mean:   stats.Mean(col),
			Max:    stats.Max(col),
			Min:    stats.Min(col),
		})
	}
	return out
}

func seqIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// RenderFig7 prints the ntrain sweep.
func RenderFig7(points []Fig7Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %8s %8s %8s\n", "ntrain", "mean%", "max%", "min%")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %8.1f %8.1f %8.1f\n", p.NTrain, p.Mean, p.Max, p.Min)
	}
	return b.String()
}

// Fig8Curve is the validation error of a first-order HM model along its
// boosting trajectory, for one (learning rate, tree complexity) setting.
type Fig8Curve struct {
	LR     float64
	TC     int
	NTrees []int
	Err    []float64 // percent
}

// Fig8 reproduces §5.2: the relationship between the number of trees,
// learning rate and tree complexity for PageRank. lrs and tcs default to
// the paper's grids when nil.
func Fig8(sc Scale, lrs []float64, tcs []int, checkpoints []int) []Fig8Curve {
	if lrs == nil {
		lrs = []float64{0.0005, 0.001, 0.005, 0.01, 0.05}
	}
	if tcs == nil {
		tcs = []int{1, 5}
	}
	if checkpoints == nil {
		checkpoints = []int{100, 800, 1500, 2200, 2900, 3600, 4300, 5000, 5700, 6400}
	}
	pr, _ := workloads.ByAbbr("PR")
	ds := collectDataset(sc, pr, sc.NTrain, 42, sc.Seed)

	var out []Fig8Curve
	for _, tc := range tcs {
		for _, lr := range lrs {
			opt := sc.HM
			opt.LearningRate = lr
			opt.TreeComplexity = tc
			opt.Seed = sc.Seed + 5
			errs, err := hm.Trajectory(ds, opt, checkpoints)
			if err != nil {
				continue
			}
			pct := make([]float64, len(errs))
			for i, e := range errs {
				pct[i] = e * 100
			}
			out = append(out, Fig8Curve{LR: lr, TC: tc, NTrees: checkpoints, Err: pct})
		}
	}
	return out
}

// RenderFig8 prints one row per curve.
func RenderFig8(curves []Fig8Curve) string {
	var b strings.Builder
	for _, c := range curves {
		fmt.Fprintf(&b, "tc=%d lr=%-7g:", c.TC, c.LR)
		for i := range c.NTrees {
			fmt.Fprintf(&b, " %d:%.1f%%", c.NTrees[i], c.Err[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig10Pair is one scatter point: real versus predicted execution time.
type Fig10Pair struct {
	RealSec float64
	PredSec float64
}

// Fig10 reproduces §5.4: the error distribution of the HM models for
// PageRank and TeraSort over n random configurations, as real-vs-predicted
// pairs.
func Fig10(sc Scale, n int) (pr, ts []Fig10Pair) {
	build := func(abbr string, seedOff int64) []Fig10Pair {
		w, _ := workloads.ByAbbr(abbr)
		train := collectDataset(sc, w, sc.NTrain, 42, sc.Seed)
		opt := sc.HM
		opt.Seed = sc.Seed + seedOff
		m, err := hm.Train(train, opt)
		if err != nil {
			return nil
		}
		test := collectDataset(sc, w, n, 42, sc.Seed+2000)
		pairs := make([]Fig10Pair, test.Len())
		for i, row := range test.Features {
			pairs[i] = Fig10Pair{RealSec: test.Targets[i], PredSec: m.Predict(row)}
		}
		return pairs
	}
	return build("PR", 11), build("TS", 12)
}

// RenderFig10 summarizes the scatter: per-decile mean relative error plus
// the fraction of points within 10% and 25% of the bisector.
func RenderFig10(name string, pairs []Fig10Pair) string {
	if len(pairs) == 0 {
		return name + ": no data\n"
	}
	within10, within25 := 0, 0
	errs := make([]float64, len(pairs))
	for i, p := range pairs {
		errs[i] = model.RelErr(p.PredSec, p.RealSec)
		if errs[i] <= 0.10 {
			within10++
		}
		if errs[i] <= 0.25 {
			within25++
		}
	}
	return fmt.Sprintf("%s: n=%d meanErr=%.1f%% medianErr=%.1f%% within10%%=%d%% within25%%=%d%%\n",
		name, len(pairs), stats.Mean(errs)*100, stats.Median(errs)*100,
		within10*100/len(pairs), within25*100/len(pairs))
}
