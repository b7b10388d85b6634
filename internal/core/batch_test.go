package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// csvTuner is the small collect both sides of the batch comparison run.
func csvTuner(exec Executor, reg *obs.Registry) (*Tuner, []float64) {
	tuner := &Tuner{
		Space: conf.StandardSpace(),
		Exec:  exec,
		Opt:   Options{NTrain: 200, Seed: 1},
		Obs:   reg,
	}
	return tuner, tuner.TrainingSizesMB(10*1024, 50*1024)
}

// collectCSV runs one small Collect with the given executor and returns the
// resulting training set serialized as CSV.
func collectCSV(t *testing.T, exec Executor, reg *obs.Registry) []byte {
	t.Helper()
	tuner, sizes := csvTuner(exec, reg)
	set, _, err := tuner.Collect(sizes)
	if err != nil {
		t.Fatal(err)
	}
	return setCSV(t, set)
}

func setCSV(t *testing.T, set *dataset.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCollectBatchByteIdenticalCSV pins the acceptance contract of the
// batched collecting path: the CSV written from a SimExecutor collect
// must be byte-identical to a per-job ExecutorFunc's, at GOMAXPROCS 1 and
// 4 alike, and every chunk must go through one ExecuteBatch call
// (counted under "core.collect.batches").
func TestCollectBatchByteIdenticalCSV(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	serial := ExecutorFunc(func(cfg conf.Config, dsizeMB float64) float64 {
		return sim.Run(&w.Program, dsizeMB, cfg).TotalSec
	})
	refTuner, refSizes := csvTuner(serial, nil)
	refSet, _ := serialCollect(t, refTuner, refSizes)
	ref := setCSV(t, refSet)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		perJobCSV := collectCSV(t, serial, nil)
		reg := obs.NewRegistry()
		batchCSV := collectCSV(t, NewSimExecutor(sim, &w.Program), reg)
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(perJobCSV, ref) {
			t.Fatalf("GOMAXPROCS=%d: per-job collect CSV differs from the serial oracle", procs)
		}
		if !bytes.Equal(batchCSV, ref) {
			t.Fatalf("GOMAXPROCS=%d: batched collect CSV differs from the serial oracle", procs)
		}
		if reg.Counter("core.collect.batches").Value() == 0 {
			t.Errorf("GOMAXPROCS=%d: SimExecutor collect never took the batch path", procs)
		}
	}
}

// TestSimExecutorBatchMatchesExecute pins the Executor contract on the
// simulator binding: ExecuteBatch must return, per job in job order, the
// exact time a single simulator Run of that job reports.
func TestSimExecutorBatchMatchesExecute(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	exec := NewSimExecutor(sim, &w.Program)
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(3))
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = Job{Cfg: space.Random(rng), DsizeMB: 1024 * (1 + 49*rng.Float64())}
	}
	times := exec.ExecuteBatch(jobs)
	if len(times) != len(jobs) {
		t.Fatalf("ExecuteBatch returned %d times for %d jobs", len(times), len(jobs))
	}
	for i, j := range jobs {
		if got := sim.Run(&w.Program, j.DsizeMB, j.Cfg).TotalSec; got != times[i] {
			t.Fatalf("job %d: Run=%v ExecuteBatch=%v", i, got, times[i])
		}
	}
}
