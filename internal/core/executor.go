package core

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/obs"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// NewSimTuner is the one recipe for a tuner over the simulated cluster,
// shared by the facade, the dac CLI, the dacd daemon and the fleet
// workers so their outputs match bit for bit: cl simulated at seed
// opt.Seed+7 and instrumented into reg, the Table 2 space, and w's
// program behind a batching SimExecutor. reg also becomes the tuner's
// registry; nil keeps every instrumented path on its zero-cost branch.
func NewSimTuner(w *workloads.Workload, cl cluster.Cluster, opt Options, reg *obs.Registry) *Tuner {
	sim := sparksim.New(cl, opt.Seed+7)
	sim.Instrument(reg)
	return &Tuner{
		Space: conf.StandardSpace(),
		Exec:  NewSimExecutor(sim, &w.Program),
		Opt:   opt,
		Obs:   reg,
	}
}

// SimExecutor runs program-input pairs on the cluster simulator — the
// Executor the facade and the commands wire into the pipeline. A chunk
// of collecting jobs becomes one sparksim.RunBatchInto call over pooled
// Result storage, so program validation, the per-run scratch buffers,
// and the Result allocations are paid once per chunk (or recycled across
// chunks) instead of once per run. Every time is bit-identical to a
// single sparksim.Run of its job (RunBatchInto's contract), so the
// chunking never changes a result.
type SimExecutor struct {
	Sim  *sparksim.Simulator
	Prog *sparksim.Program

	// scratch recycles each batch's RunSpec and Result storage across
	// ExecuteBatch calls; the sweep's steady state allocates only the
	// returned times slice.
	scratch sync.Pool
}

// batchScratch is one ExecuteBatch call's reusable storage.
type batchScratch struct {
	pairs   []sparksim.RunSpec
	results []sparksim.Result
}

// NewSimExecutor adapts a simulator and a program to the collecting
// pipeline's Executor interface.
func NewSimExecutor(sim *sparksim.Simulator, p *sparksim.Program) *SimExecutor {
	return &SimExecutor{Sim: sim, Prog: p}
}

// ExecuteBatch implements Executor: one RunBatchInto over the chunk,
// against pooled Result storage.
func (e *SimExecutor) ExecuteBatch(jobs []Job) []float64 {
	sc, _ := e.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	pairs := sc.pairs[:0]
	for _, j := range jobs {
		pairs = append(pairs, sparksim.RunSpec{Cfg: j.Cfg, InputMB: j.DsizeMB})
	}
	sc.results = e.Sim.RunBatchInto(e.Prog, pairs, sc.results)
	out := make([]float64, len(jobs))
	for i := range sc.results {
		out[i] = sc.results[i].TotalSec
	}
	sc.pairs = pairs
	e.scratch.Put(sc)
	return out
}
