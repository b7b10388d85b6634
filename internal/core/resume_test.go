package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/dataset"
	"repro/internal/ga"
	"repro/internal/hm"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// serialCollect is the collect oracle: every sweep row executed one at a
// time, as a one-job Exec.ExecuteBatch, in index order, gathered into a
// set the way the collector documents it.
func serialCollect(t *testing.T, tuner *Tuner, sizes []float64) (*dataset.Set, Overhead) {
	t.Helper()
	set := dataset.NewSet(tuner.Space)
	var clusterSec float64
	for _, j := range tuner.CollectJobs(sizes) {
		sec := tuner.Exec.ExecuteBatch([]Job{j})[0]
		set.Add(j.Cfg, j.DsizeMB, sec)
		clusterSec += sec
	}
	return set, Overhead{CollectClusterHours: clusterSec / 3600}
}

// TestCollectResumableMatchesCollect pins the durable path's equivalence
// contract: with no known rows, CollectResumable must produce a CSV
// byte-identical to the serial oracle's — for any checkpoint batch size,
// with and without a batched executor — and deliver every row exactly
// once through OnBatch. ExecuteRows chunks at any Parallelism reproduce
// the same times.
func TestCollectResumableMatchesCollect(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	tuner := &Tuner{
		Space: conf.StandardSpace(),
		Exec:  NewSimExecutor(sim, &w.Program),
		Opt:   Options{NTrain: 150, Seed: 1},
	}
	sizes := tuner.TrainingSizesMB(10*1024, 50*1024)
	ref, refOv := serialCollect(t, tuner, sizes)
	var refCSV bytes.Buffer
	if err := ref.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}

	for _, batchRows := range []int{1, 7, 64, 1000} {
		var mu sync.Mutex
		seen := make(map[int]float64)
		set, ov, err := tuner.CollectResumable(context.Background(), sizes, RowHooks{
			BatchRows: batchRows,
			OnBatch: func(rows []RowTime) error {
				mu.Lock()
				defer mu.Unlock()
				for _, r := range rows {
					if _, dup := seen[r.Index]; dup {
						t.Errorf("batchRows=%d: row %d delivered twice", batchRows, r.Index)
					}
					seen[r.Index] = r.TimeSec
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := set.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv.Bytes(), refCSV.Bytes()) {
			t.Fatalf("batchRows=%d: resumable collect CSV differs from the serial oracle", batchRows)
		}
		if ov.CollectClusterHours != refOv.CollectClusterHours {
			t.Fatalf("batchRows=%d: cluster-hours drifted: %v vs %v",
				batchRows, ov.CollectClusterHours, refOv.CollectClusterHours)
		}
		if len(seen) != tuner.Opt.NTrain {
			t.Fatalf("batchRows=%d: OnBatch saw %d rows, want %d", batchRows, len(seen), tuner.Opt.NTrain)
		}
	}

	// Fleet chunks: ExecuteRows over 32-row index chunks, at Parallelism
	// 1 and 4, returns the oracle's times bit for bit.
	jobs := tuner.CollectJobs(sizes)
	for _, par := range []int{1, 4} {
		chunked := &Tuner{Space: tuner.Space, Exec: tuner.Exec, Opt: Options{NTrain: 150, Seed: 1, Parallelism: par}}
		for lo := 0; lo < len(jobs); lo += 32 {
			var idx []int
			for i := lo; i < min(lo+32, len(jobs)); i++ {
				idx = append(idx, i)
			}
			rows, err := chunked.ExecuteRows(context.Background(), jobs, idx)
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range rows {
				if r.Index != idx[k] || r.TimeSec != ref.Vectors[r.Index].TimeSec {
					t.Fatalf("parallelism=%d: chunk row %d = (%d, %v), want (%d, %v)",
						par, k, r.Index, r.TimeSec, idx[k], ref.Vectors[idx[k]].TimeSec)
				}
			}
		}
	}
	for _, bad := range [][]int{{3, 2}, {4, 4}, {-1}, {len(jobs)}} {
		if _, err := tuner.ExecuteRows(context.Background(), jobs, bad); err == nil {
			t.Errorf("ExecuteRows(%v) accepted unsorted or out-of-range indices", bad)
		}
	}

	// Known rows short-circuit: feed half the rows back, require the other
	// half to be the only fresh executions, and the set to stay identical.
	half := make(map[int]float64)
	for i, pv := range ref.Vectors {
		if i%2 == 0 {
			half[i] = pv.TimeSec
		}
	}
	fresh := 0
	var mu sync.Mutex
	set, _, err := tuner.CollectResumable(context.Background(), sizes, RowHooks{
		Known: func(i int) (float64, bool) { v, ok := half[i]; return v, ok },
		OnBatch: func(rows []RowTime) error {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rows {
				if _, known := half[r.Index]; known {
					t.Errorf("known row %d re-executed", r.Index)
				}
				fresh++
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := set.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), refCSV.Bytes()) {
		t.Fatal("half-resumed collect CSV differs from the serial oracle")
	}
	if fresh != tuner.Opt.NTrain-len(half) {
		t.Fatalf("resumed sweep executed %d fresh rows, want %d", fresh, tuner.Opt.NTrain-len(half))
	}
}

// TestCollectResumableCancel pins cancellation: a cancelled sweep returns
// ctx's error, and the rows delivered before the cancel replay through
// Known to finish the sweep with a byte-identical CSV.
func TestCollectResumableCancel(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	tuner := &Tuner{
		Space: conf.StandardSpace(),
		Exec:  NewSimExecutor(sim, &w.Program),
		Opt:   Options{NTrain: 120, Seed: 1, Parallelism: 2},
	}
	sizes := tuner.TrainingSizesMB(10*1024, 50*1024)
	ref, _, err := tuner.Collect(sizes)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := ref.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	journal := make(map[int]float64)
	var mu sync.Mutex
	_, _, err = tuner.CollectResumable(ctx, sizes, RowHooks{
		BatchRows: 10,
		OnBatch: func(rows []RowTime) error {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rows {
				journal[r.Index] = r.TimeSec
			}
			if len(journal) >= 30 {
				cancel()
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("cancelled collect returned nil error")
	}
	if len(journal) >= tuner.Opt.NTrain {
		t.Fatalf("cancel had no effect: all %d rows ran", len(journal))
	}

	set, _, err := tuner.CollectResumable(context.Background(), sizes, RowHooks{
		BatchRows: 10,
		Known: func(i int) (float64, bool) {
			mu.Lock()
			defer mu.Unlock()
			v, ok := journal[i]
			return v, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := set.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), refCSV.Bytes()) {
		t.Fatal("cancel-then-resume CSV differs from an uninterrupted Collect")
	}
}

// TestTuneCollectedMatchesTune pins the daemon's pipeline seam: Tune must
// equal collect-then-TuneCollected exactly — same best vector, same
// prediction, same GA trajectory — because all modeling/search randomness
// derives from Opt.Seed, not from how the set was gathered.
func TestTuneCollectedMatchesTune(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	newTuner := func() *Tuner {
		sim := sparksim.New(cluster.Standard(), 8)
		return &Tuner{
			Space: conf.StandardSpace(),
			Exec:  NewSimExecutor(sim, &w.Program),
			Opt: Options{
				NTrain: 200,
				HM:     hm.Options{Trees: 120, LearningRate: 0.1, TreeComplexity: 5},
				GA:     ga.Options{PopSize: 20, Generations: 10},
				Seed:   3,
			},
		}
	}
	target := w.InputMB(30)
	lo, hi := w.InputMB(10), w.InputMB(50)

	ref, err := newTuner().Tune(lo, hi, []float64{target})
	if err != nil {
		t.Fatal(err)
	}

	tuner := newTuner()
	set, ovC, err := tuner.CollectResumable(context.Background(), tuner.TrainingSizesMB(lo, hi), RowHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	got, err := tuner.TuneCollected(set, ovC, []float64{target}, func(phase string, done, total int) {
		phases = append(phases, phase)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Best[target].Vector(), ref.Best[target].Vector()) {
		t.Fatal("TuneCollected best configuration differs from Tune")
	}
	if got.PredictedSec[target] != ref.PredictedSec[target] {
		t.Fatalf("predictions differ: %v vs %v", got.PredictedSec[target], ref.PredictedSec[target])
	}
	if !reflect.DeepEqual(got.GA[target].History, ref.GA[target].History) {
		t.Fatal("GA trajectories differ")
	}
	if len(phases) != 2 || phases[0] != "model" || phases[1] != "search" {
		t.Fatalf("progress phases = %v, want [model search]", phases)
	}
}

// TestOnBatchErrorStopsSweep pins the checkpoint-failure contract: the
// first OnBatch error stops the engine handing out batches, and both
// CollectResumable and TuneOnline return it wrapped instead of running
// the sweep to the end with nothing durable.
func TestOnBatchErrorStopsSweep(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	var runs atomic.Int64
	tuner := &Tuner{
		Space: conf.StandardSpace(),
		Exec: ExecutorFunc(func(cfg conf.Config, dsizeMB float64) float64 {
			runs.Add(1)
			return sim.Run(&w.Program, dsizeMB, cfg).TotalSec
		}),
		Opt: Options{
			NTrain:      200,
			HM:          hm.Options{Trees: 60, LearningRate: 0.1, TreeComplexity: 5},
			GA:          ga.Options{PopSize: 10, Generations: 4},
			Seed:        1,
			Parallelism: 1,
		},
	}
	errDisk := errors.New("disk full")
	failing := RowHooks{OnBatch: func([]RowTime) error { return errDisk }}

	_, _, err = tuner.CollectResumable(context.Background(), tuner.TrainingSizesMB(10*1024, 50*1024), failing)
	if !errors.Is(err, errDisk) {
		t.Fatalf("collect error = %v, want the OnBatch error wrapped", err)
	}
	if n := runs.Load(); n >= int64(tuner.Opt.NTrain) {
		t.Fatalf("collect ran all %d rows after the first OnBatch error", n)
	}

	runs.Store(0)
	oo := OnlineOptions{ScreenSamples: 100, TopK: 4, Iterations: 1, IterBatch: 4, ExtraTrees: 20}
	_, err = tuner.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), w.InputMB(30), oo, failing)
	if !errors.Is(err, errDisk) {
		t.Fatalf("online error = %v, want the OnBatch error wrapped", err)
	}
	if n := runs.Load(); n >= int64(oo.ScreenSamples) {
		t.Fatalf("online screening ran all %d rows after the first OnBatch error", n)
	}
}
