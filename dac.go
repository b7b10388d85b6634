// Package dac is a from-scratch Go implementation of DAC — the
// datasize-aware, high dimensional configuration auto-tuner for in-memory
// cluster computing of Yu, Bei and Qian (ASPLOS'18) — together with every
// substrate the paper's evaluation needs: a mechanistic Spark-1.6-style
// cluster simulator, the six HiBench workloads, an on-disk MapReduce
// simulator, the Hierarchical Modeling learner, four baseline learners
// (response surface, neural network, SVR, random forest), a genetic
// algorithm plus alternative searchers, and the expert-rules baseline.
//
// The package is a facade: it re-exports the library's public surface
// from the internal implementation packages. The typical flow mirrors the
// paper's Fig. 4:
//
//	w, _ := dac.WorkloadByAbbr("TS")
//	tuner := dac.NewTuner(w, dac.StandardCluster(), dac.Options{})
//	res, _ := tuner.Tune(w.InputMB(10), w.InputMB(50), []float64{w.InputMB(30)})
//	best := res.Best[w.InputMB(30)]
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-versus-reproduction comparison of every table and figure.
package dac

import (
	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/expert"
	"repro/internal/ga"
	"repro/internal/hadoopsim"
	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// Core configuration-space and cluster types.
type (
	// Space is a set of tunable parameters; StandardSpace returns the 41
	// Spark parameters of the paper's Table 2.
	Space = conf.Space
	// Config is one point in a Space: an encoded value per parameter.
	Config = conf.Config
	// Param describes one tunable parameter.
	Param = conf.Param
	// Cluster describes the modelled hardware.
	Cluster = cluster.Cluster
)

// Workload and simulator types.
type (
	// Workload is one of the six HiBench programs with its Table 1 sizes.
	Workload = workloads.Workload
	// Program is a workload's stage DAG.
	Program = sparksim.Program
	// Stage is one Spark stage description.
	Stage = sparksim.Stage
	// Simulator executes Programs on a modelled cluster.
	Simulator = sparksim.Simulator
	// SimOptions selects simulator mechanisms (ablation switches).
	SimOptions = sparksim.Options
	// RunResult is a simulated execution's timing breakdown.
	RunResult = sparksim.Result
	// StageResult is the per-stage breakdown within a RunResult.
	StageResult = sparksim.StageResult
)

// Tuning pipeline types.
type (
	// Tuner is the DAC pipeline (collect, model, search) for one program.
	Tuner = core.Tuner
	// RFHOCTuner is the datasize-blind random-forest baseline pipeline.
	RFHOCTuner = core.RFHOCTuner
	// Options configures the pipeline (training budget, HM, GA).
	Options = core.Options
	// TuneResult is an end-to-end tuning outcome.
	TuneResult = core.TuneResult
	// Overhead records the pipeline costs reported in Table 3.
	Overhead = core.Overhead
	// Executor abstracts the system that runs program-input pairs.
	Executor = core.Executor
	// ExecutorFunc adapts a function running one program-input pair to
	// Executor.
	ExecutorFunc = core.ExecutorFunc
	// SimExecutor is the simulator-backed Executor.
	SimExecutor = core.SimExecutor
	// Model predicts execution time from configuration + datasize.
	Model = model.Model
	// HMOptions are the Hierarchical Modeling hyperparameters.
	HMOptions = hm.Options
	// GAOptions are the genetic-algorithm hyperparameters.
	GAOptions = ga.Options
	// GAResult is a search outcome with its convergence history.
	GAResult = ga.Result
)

// StandardSpace returns the 41-parameter Spark configuration space of
// Table 2, with the paper's value ranges and defaults.
func StandardSpace() *Space { return conf.StandardSpace() }

// StandardCluster returns the paper's testbed: one master plus five
// 72-core/64 GB workers (432 cores, 384 GB total).
func StandardCluster() Cluster { return cluster.Standard() }

// DefaultConfig returns the Spark-team default configuration.
func DefaultConfig() Config { return conf.StandardSpace().Default() }

// ExpertConfig returns the configuration an expert derives from the Spark
// and Cloudera tuning guides for the given cluster (§5.6's manual
// baseline).
func ExpertConfig(space *Space, cl Cluster) Config { return expert.Config(space, cl) }

// Workloads returns the six evaluated programs in the paper's order:
// PageRank, KMeans, Bayes, NWeight, WordCount, TeraSort.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByAbbr looks a workload up by its two-letter code ("PR", "KM",
// "BA", "NW", "WC", "TS").
func WorkloadByAbbr(abbr string) (*Workload, error) { return workloads.ByAbbr(abbr) }

// NewSimulator returns a deterministic in-memory-cluster simulator over
// cl.
func NewSimulator(cl Cluster, seed int64) *Simulator { return sparksim.New(cl, seed) }

// NewSimExecutor adapts a simulator and a program to the Executor
// interface the tuning pipeline consumes: the collector runs each
// worker's chunk through one batched simulator call.
func NewSimExecutor(sim *Simulator, p *Program) *SimExecutor {
	return core.NewSimExecutor(sim, p)
}

// NewTuner wires a DAC tuner for workload w simulated on cl. The seed
// fixes both the simulator and the pipeline's randomness.
func NewTuner(w *Workload, cl Cluster, opt Options) *Tuner {
	return core.NewSimTuner(w, cl, opt, nil)
}

// NewRFHOCTuner wires the RFHOC baseline for workload w simulated on cl,
// over the same simulator and executor NewTuner wires.
func NewRFHOCTuner(w *Workload, cl Cluster, opt Options) *RFHOCTuner {
	t := core.NewSimTuner(w, cl, opt, nil)
	return &RFHOCTuner{Space: t.Space, Exec: t.Exec, Opt: opt}
}

// HadoopSpace returns the ~10-parameter Hadoop configuration space used
// by the motivation study (Fig. 2).
func HadoopSpace() *Space { return hadoopsim.Space() }

// NewHadoopSimulator returns the on-disk (MapReduce-style) cluster
// simulator used by the motivation study.
func NewHadoopSimulator(cl Cluster, seed int64) *HadoopSimulator {
	return hadoopsim.New(cl, seed)
}
