// Command dac tunes Spark-style configurations for the six HiBench
// workloads on the simulated cluster, following the paper's pipeline:
// collect → model → search.
//
// Subcommands:
//
//	dac collect -workload TS -n 2000 -out ts.csv
//	    Run the collecting component and write the training set as CSV.
//
//	dac train -in ts.csv -out ts.model
//	    Fit the HM performance model on a collected CSV and persist it.
//
//	dac search -model ts.model -workload TS -size 30 -out spark-dac.conf
//	    Load a saved model and search a configuration for one target
//	    datasize, optionally writing a Spark properties file.
//
//	dac tune -workload TS -size 30
//	    Run the full pipeline in one shot and print the tuned
//	    configuration, its predicted time, and the measured speedup over
//	    the default and expert configurations. With -online, run the
//	    importance-screened online loop instead: a small screening
//	    sample, then alternating measure → refit → search iterations
//	    over the influential parameters only (DESIGN.md §14).
//
//	dac compare -workload TS
//	    Tune with DAC and RFHOC and print the four-way comparison across
//	    the workload's five Table 1 sizes.
//
//	dac show -workload TS
//	    Print the workload's description and Table 1 sizes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/backends"
	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/expert"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "collect":
		err = cmdCollect(os.Args[2:])
	case "tune":
		err = cmdTune(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "importance":
		err = cmdImportance(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "client":
		err = cmdClient(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dac:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dac <collect|train|search|tune|show|compare|importance|bench|serve|worker|client> [flags]
  dac collect -workload TS -n 2000 -out ts.csv
  dac train   -in ts.csv -out ts.model          # fit HM on collected data
  dac search  -model ts.model -workload TS -size 30 [-out spark-dac.conf] [-searcher tpe]
  dac tune    -workload TS -size 30 [-ntrain 2000] [-seed 1] [-model hm|rf|rs|ann|svm] [-searcher ga|tpe|random|rrs|pattern|anneal]
  dac tune    -workload TS -size 30 -online [-screen 200] [-topk 10] [-iterations 8] [-iter-batch 32]
  dac show    -workload TS
  dac compare -workload TS [-ntrain 2000]
  dac importance -in ts.csv [-top 10]
  dac bench   [-json BENCH_model.json] [-quick]  # ns/op of the model pipeline
  dac serve   [-addr :7411] [-data dacd-data] [-workers 2] [-coordinator] [-auth-token T] [-gc-keep-versions N]
  dac worker  [-coordinator http://127.0.0.1:7411] [-name w1] [-parallelism N]  # fleet sweep worker
  dac client  <submit|status|jobs|cancel|models|predict|backends> [-addr http://127.0.0.1:7411]
pipeline subcommands also accept -report (print metrics report),
-metrics <path> (write metrics JSON), -cpuprofile <path> and
-memprofile <path> (write pprof profiles)`)
}

// obsFlags registers the observability flags shared by the pipeline
// subcommands: -report prints the metrics report to stderr after the
// command finishes, and -metrics writes the same data as JSON (the schema
// is documented in DESIGN.md).
type obsFlags struct {
	report  *bool
	metrics *string
}

func addObsFlags(fs *flag.FlagSet) obsFlags {
	return obsFlags{
		report:  fs.Bool("report", false, "print the metrics report (per-phase wall-clock, simulator/model/GA counters)"),
		metrics: fs.String("metrics", "", "write metrics as JSON to this path (e.g. metrics.json)"),
	}
}

// registry returns the registry the command should instrument with, or
// nil when neither flag asked for metrics — keeping the zero-cost path.
func (o obsFlags) registry() *obs.Registry {
	if !*o.report && *o.metrics == "" {
		return nil
	}
	return obs.NewRegistry()
}

// emit renders the registry according to the flags. A nil registry (flags
// unset) emits nothing.
func (o obsFlags) emit(reg *obs.Registry) error {
	if reg == nil {
		return nil
	}
	if *o.report {
		fmt.Fprint(os.Stderr, "\n"+reg.Report())
	}
	if *o.metrics != "" {
		f, err := os.Create(*o.metrics)
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", *o.metrics)
	}
	return nil
}

func lookupWorkload(abbr string) (*workloads.Workload, error) {
	w, err := workloads.ByAbbr(strings.ToUpper(abbr))
	if err != nil {
		abbrs := make([]string, 0, 6)
		for _, x := range workloads.All() {
			abbrs = append(abbrs, x.Abbr)
		}
		return nil, fmt.Errorf("%v (choose one of %s)", err, strings.Join(abbrs, ", "))
	}
	return w, nil
}

func newTuner(w *workloads.Workload, ntrain int, seed int64, reg *obs.Registry) *core.Tuner {
	sim := sparksim.New(cluster.Standard(), seed+7)
	sim.Instrument(reg)
	budget := experiments.PaperBudget()
	return &core.Tuner{
		Space: conf.StandardSpace(),
		// The batch executor lets the collector hand each worker's chunk
		// to one sparksim.RunBatch call (bit-identical to per-job runs).
		Exec: core.NewSimExecutor(sim, &w.Program),
		Opt: core.Options{
			NTrain: ntrain,
			HM:     budget.HM,
			GA:     budget.GA,
			Seed:   seed,
		},
		Obs: reg,
	}
}

// selectBackend validates -model and, for non-default choices, routes the
// tuner's modeling stage through that backend. The hm default keeps the
// tuner's built-in HM path — output stays byte-identical to a build
// without the backend layer.
func selectBackend(t *core.Tuner, name string, reg *obs.Registry) error {
	b, err := backends.Default().Lookup(name)
	if err != nil {
		return err
	}
	if name == "hm" {
		return nil
	}
	t.Opt.Backend = b
	t.Opt.BackendTrain = model.TrainOpts{}
	reg.Counter("model.backend." + name).Inc()
	fmt.Printf("model backend: %s\n", name)
	return nil
}

// selectSearcher validates -searcher and routes the tuner's searching
// stage through that searcher. The registry's ga carries the tuner's GA
// options, so the default tunes exactly as a tuner without a searcher.
func selectSearcher(t *core.Tuner, name string, reg *obs.Registry) error {
	s, err := search.Default().Lookup(name)
	if err != nil {
		return err
	}
	t.Opt.Searcher = s
	reg.Counter("search.searcher." + name).Inc()
	fmt.Printf("searcher: %s\n", name)
	return nil
}

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	abbr := fs.String("workload", "TS", "workload abbreviation (PR, KM, BA, NW, WC, TS)")
	n := fs.Int("n", 2000, "number of performance vectors")
	out := fs.String("out", "", "output CSV path (default stdout)")
	seed := fs.Int64("seed", 1, "random seed")
	of := addObsFlags(fs)
	pf := addProfFlags(fs)
	fs.Parse(args)
	stop, err := pf.start()
	if err != nil {
		return err
	}
	defer stop()

	w, err := lookupWorkload(*abbr)
	if err != nil {
		return err
	}
	reg := of.registry()
	t := newTuner(w, *n, *seed, reg)
	sizes := t.TrainingSizesMB(w.InputMB(w.Sizes[0])*0.8, w.InputMB(w.Sizes[len(w.Sizes)-1])*1.1)
	set, ov, err := t.Collect(sizes)
	if err != nil {
		return err
	}
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := set.WriteCSV(dst); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "collected %d vectors for %s (%.1f simulated cluster hours)\n",
		set.Len(), w.Name, ov.CollectClusterHours)
	return of.emit(reg)
}

func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	abbr := fs.String("workload", "TS", "workload abbreviation")
	size := fs.Float64("size", 0, "target datasize in the workload's units (default: middle Table 1 size)")
	ntrain := fs.Int("ntrain", 2000, "training vectors to collect")
	seed := fs.Int64("seed", 1, "random seed")
	backendName := fs.String("model", "hm", "model backend (hm|rf|rs|ann|svm)")
	searcherName := fs.String("searcher", "ga", "configuration searcher (ga|tpe|random|rrs|pattern|anneal)")
	online := fs.Bool("online", false, "online importance-screened tuning: screen, then iterate measure→refit→search")
	screen := fs.Int("screen", 0, "online: screening sample count (0 = default 200)")
	topk := fs.Int("topk", 0, "online: parameters kept tunable after screening (0 = default 10)")
	iterations := fs.Int("iterations", 0, "online: refit/search iterations (0 = default 8)")
	iterBatch := fs.Int("iter-batch", 0, "online: measured candidates per iteration (0 = default 32)")
	of := addObsFlags(fs)
	pf := addProfFlags(fs)
	fs.Parse(args)
	stop, err := pf.start()
	if err != nil {
		return err
	}
	defer stop()

	w, err := lookupWorkload(*abbr)
	if err != nil {
		return err
	}
	units := *size
	if units == 0 {
		units = w.Sizes[len(w.Sizes)/2]
	}
	targetMB := w.InputMB(units)
	reg := of.registry()
	t := newTuner(w, *ntrain, *seed, reg)
	if err := selectBackend(t, *backendName, reg); err != nil {
		return err
	}
	if err := selectSearcher(t, *searcherName, reg); err != nil {
		return err
	}
	lo := w.InputMB(w.Sizes[0]) * 0.8
	hi := w.InputMB(w.Sizes[len(w.Sizes)-1]) * 1.1
	if *online {
		oo := core.OnlineOptions{
			ScreenSamples: *screen,
			TopK:          *topk,
			Iterations:    *iterations,
			IterBatch:     *iterBatch,
			Guard:         core.SimOOMGuard(cluster.Standard(), &w.Program, 0),
		}
		return tuneOnlineCLI(w, t, units, targetMB, lo, hi, oo, of, reg)
	}
	fmt.Printf("tuning %s for %g %s (%.0f MB)...\n", w.Name, units, w.Unit, targetMB)
	res, err := t.Tune(lo, hi, []float64{targetMB})
	if err != nil {
		return err
	}
	best := res.Best[targetMB]

	// Evaluate on a fresh simulator seed against the baselines.
	evalSim := sparksim.New(cluster.Standard(), 99)
	space := conf.StandardSpace()
	tDAC := evalSim.Run(&w.Program, targetMB, best).TotalSec
	tDef := evalSim.Run(&w.Program, targetMB, space.Default()).TotalSec
	tExp := evalSim.Run(&w.Program, targetMB, expert.Config(space, cluster.Standard())).TotalSec

	fmt.Printf("\ntuned configuration (spark-dac.conf):\n%s\n", best)
	fmt.Printf("\npredicted: %.1fs   measured: %.1fs\n", res.PredictedSec[targetMB], tDAC)
	fmt.Printf("default:   %.1fs   (speedup %.1fx)\n", tDef, tDef/tDAC)
	fmt.Printf("expert:    %.1fs   (speedup %.1fx)\n", tExp, tExp/tDAC)
	fmt.Printf("\noverhead: collecting %.1f simulated cluster hours, modeling %.1fs, searching %.1fs\n",
		res.Overhead.CollectClusterHours, res.Overhead.ModelTrainSec, res.Overhead.SearchSec)
	return of.emit(reg)
}

// tuneOnlineCLI drives the tune_online pipeline (DESIGN.md §14) and
// prints the screening verdict, the per-iteration progression, and the
// same baseline comparison cmdTune prints — so the two modes are
// directly comparable on one terminal.
func tuneOnlineCLI(w *workloads.Workload, t *core.Tuner, units, targetMB, lo, hi float64,
	oo core.OnlineOptions, of obsFlags, reg *obs.Registry) error {
	fmt.Printf("online tuning %s for %g %s (%.0f MB)...\n", w.Name, units, w.Unit, targetMB)
	lastPhase := ""
	res, err := t.TuneOnline(context.Background(), lo, hi, targetMB, oo, core.RowHooks{
		Progress: func(phase string, done, total int) {
			if phase != lastPhase {
				if lastPhase != "" {
					fmt.Fprintln(os.Stderr)
				}
				lastPhase = phase
			}
			fmt.Fprintf(os.Stderr, "\r%-7s %d/%d", phase, done, total)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr)

	fmt.Printf("\nscreening kept %d of %d parameters:\n", len(res.Screened), t.Space.Len())
	for i, name := range res.Screened {
		fmt.Printf("%2d. %-45s %5.1f%%\n", i+1, name, res.Importance[i]*100)
	}
	fmt.Printf("\n%4s %6s %5s %8s %13s %14s %9s\n",
		"iter", "runs", "warm", "valerr", "predicted(s)", "best-meas(s)", "rejected")
	for i, it := range res.Iterations {
		warm := "no"
		if it.WarmStarted {
			warm = "yes"
		}
		fmt.Printf("%4d %6d %5s %7.1f%% %13.1f %14.1f %9d\n",
			i+1, it.Runs, warm, it.ValErr*100, it.PredictedSec, it.BestMeasuredSec, it.GuardRejected)
	}

	// Evaluate on a fresh simulator seed against the baselines, exactly
	// as the offline path does.
	evalSim := sparksim.New(cluster.Standard(), 99)
	space := conf.StandardSpace()
	tDAC := evalSim.Run(&w.Program, targetMB, res.Best).TotalSec
	tDef := evalSim.Run(&w.Program, targetMB, space.Default()).TotalSec
	tExp := evalSim.Run(&w.Program, targetMB, expert.Config(space, cluster.Standard())).TotalSec

	fmt.Printf("\ntuned configuration (spark-dac.conf):\n%s\n", res.Best)
	fmt.Printf("\npredicted: %.1fs   measured: %.1fs\n", res.PredictedSec, tDAC)
	fmt.Printf("default:   %.1fs   (speedup %.1fx)\n", tDef, tDef/tDAC)
	fmt.Printf("expert:    %.1fs   (speedup %.1fx)\n", tExp, tExp/tDAC)
	fmt.Printf("\noverhead: %d measured runs (%.1f simulated cluster hours), %d candidates rejected by the memory guard\n",
		res.TotalRuns, res.Overhead.CollectClusterHours, res.GuardRejections)
	return of.emit(reg)
}

// cmdTrain fits an HM model on a previously collected CSV and saves it —
// the collecting cost is paid once, the model is reused by `dac search`.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	in := fs.String("in", "", "training CSV from `dac collect` (required)")
	out := fs.String("out", "dac.model", "model output path")
	seed := fs.Int64("seed", 1, "random seed")
	of := addObsFlags(fs)
	pf := addProfFlags(fs)
	fs.Parse(args)
	stop, err := pf.start()
	if err != nil {
		return err
	}
	defer stop()
	if *in == "" {
		return fmt.Errorf("train: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	set, err := dataset.ReadCSV(f, conf.StandardSpace())
	if err != nil {
		return err
	}
	reg := of.registry()
	hmOpt := experiments.PaperBudget().HM
	hmOpt.Seed = *seed
	hmOpt.Obs = reg
	m, err := hm.Train(set.ToDataset(), hmOpt)
	if err != nil {
		return err
	}
	dst, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer dst.Close()
	if err := m.Save(dst); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trained on %d vectors (order %d, validation error %.1f%%); saved to %s\n",
		set.Len(), m.Order, m.ValErr*100, *out)
	return of.emit(reg)
}

// cmdImportance trains an HM model on a collected CSV and ranks the
// features by split gain — which knobs (and the dsize column) carry the
// predictive power.
func cmdImportance(args []string) error {
	fs := flag.NewFlagSet("importance", flag.ExitOnError)
	in := fs.String("in", "", "training CSV from `dac collect` (required)")
	top := fs.Int("top", 10, "features to show")
	seed := fs.Int64("seed", 1, "random seed")
	of := addObsFlags(fs)
	pf := addProfFlags(fs)
	fs.Parse(args)
	stop, err := pf.start()
	if err != nil {
		return err
	}
	defer stop()
	if *in == "" {
		return fmt.Errorf("importance: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	set, err := dataset.ReadCSV(f, conf.StandardSpace())
	if err != nil {
		return err
	}
	ds := set.ToDataset()
	reg := of.registry()
	hmOpt := experiments.PaperBudget().HM
	hmOpt.Seed = *seed
	hmOpt.Obs = reg
	m, err := hm.Train(ds, hmOpt)
	if err != nil {
		return err
	}
	type row struct {
		name  string
		share float64
	}
	imp := m.FeatureImportance()
	rows := make([]row, len(imp))
	for i, v := range imp {
		rows[i] = row{ds.Names[i], v}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	if *top > 0 && *top < len(rows) {
		rows = rows[:*top]
	}
	for i, r := range rows {
		fmt.Printf("%2d. %-45s %5.1f%%\n", i+1, r.name, r.share*100)
	}
	return of.emit(reg)
}

// cmdSearch loads a saved model and runs the GA for one target size —
// milliseconds of work against a model that took hours of cluster time to
// earn.
func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	modelPath := fs.String("model", "", "model from `dac train` (required)")
	abbr := fs.String("workload", "TS", "workload abbreviation (for datasize units)")
	size := fs.Float64("size", 0, "target datasize in workload units")
	out := fs.String("out", "", "write the configuration as a properties file")
	seed := fs.Int64("seed", 1, "random seed")
	searcherName := fs.String("searcher", "ga", "configuration searcher (ga|tpe|random|rrs|pattern|anneal)")
	of := addObsFlags(fs)
	pf := addProfFlags(fs)
	fs.Parse(args)
	stop, err := pf.start()
	if err != nil {
		return err
	}
	defer stop()
	if *modelPath == "" {
		return fmt.Errorf("search: -model is required")
	}
	w, err := lookupWorkload(*abbr)
	if err != nil {
		return err
	}
	units := *size
	if units == 0 {
		units = w.Sizes[len(w.Sizes)/2]
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	m, err := hm.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	reg := of.registry()
	t := newTuner(w, 1, *seed, reg) // executor unused by Search
	if err := selectSearcher(t, *searcherName, reg); err != nil {
		return err
	}
	cfg, pred, gaRes, _, err := t.Search(m, w.InputMB(units), nil)
	if err != nil {
		return err
	}
	fmt.Printf("predicted %.1fs after %d GA evaluations (converged at iteration %d)\n",
		pred, gaRes.Evaluations, gaRes.Converged)
	if *out != "" {
		dst, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer dst.Close()
		if err := cfg.WriteProperties(dst); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
		return of.emit(reg)
	}
	fmt.Println(cfg)
	return of.emit(reg)
}

// cmdCompare tunes with both DAC and RFHOC and prints the four-way
// comparison (default / expert / RFHOC / DAC) across the workload's five
// Table 1 sizes — one workload's slice of the paper's Fig. 12.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	abbr := fs.String("workload", "TS", "workload abbreviation")
	ntrain := fs.Int("ntrain", 2000, "training vectors to collect")
	seed := fs.Int64("seed", 1, "random seed")
	of := addObsFlags(fs)
	pf := addProfFlags(fs)
	fs.Parse(args)
	stop, err := pf.start()
	if err != nil {
		return err
	}
	defer stop()

	w, err := lookupWorkload(*abbr)
	if err != nil {
		return err
	}
	reg := of.registry()
	t := newTuner(w, *ntrain, *seed, reg)
	targets := w.SizesMB()
	lo, hi := targets[0]*0.8, targets[len(targets)-1]*1.1

	fmt.Printf("tuning %s (DAC per size + RFHOC)...\n", w.Name)
	res, err := t.Tune(lo, hi, targets)
	if err != nil {
		return err
	}
	rfhoc := &core.RFHOCTuner{Space: t.Space, Exec: t.Exec, Opt: t.Opt, Obs: reg}
	rfhocCfg, err := rfhoc.Tune(lo, hi)
	if err != nil {
		return err
	}

	evalSim := sparksim.New(cluster.Standard(), 99)
	space := conf.StandardSpace()
	expCfg := expert.Config(space, cluster.Standard())
	defCfg := space.Default()
	fmt.Printf("\n%-4s %12s %12s %12s %12s\n", "size", "default(s)", "expert(s)", "RFHOC(s)", "DAC(s)")
	for i, mb := range targets {
		fmt.Printf("D%-3d %12.1f %12.1f %12.1f %12.1f\n", i+1,
			evalSim.Run(&w.Program, mb, defCfg).TotalSec,
			evalSim.Run(&w.Program, mb, expCfg).TotalSec,
			evalSim.Run(&w.Program, mb, rfhocCfg).TotalSec,
			evalSim.Run(&w.Program, mb, res.Best[mb]).TotalSec)
	}
	return of.emit(reg)
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	abbr := fs.String("workload", "", "workload abbreviation (empty = all)")
	fs.Parse(args)

	show := func(w *workloads.Workload) {
		fmt.Printf("%s (%s): input unit %s, Table 1 sizes %v\n", w.Name, w.Abbr, w.Unit, w.Sizes)
		for _, st := range w.Program.Stages {
			times := st.Times()
			fmt.Printf("  stage %-16s x%d  cpu=%.3fs/MB shuffleOut=%.2f memx=%.1f\n",
				st.Name, times, st.CPUSecPerMB, st.ShuffleFrac, st.MemExpansion)
		}
	}
	if *abbr == "" {
		for _, w := range workloads.All() {
			show(w)
		}
		return nil
	}
	w, err := lookupWorkload(*abbr)
	if err != nil {
		return err
	}
	show(w)
	return nil
}
