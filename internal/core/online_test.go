package core

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/ga"
	"repro/internal/hm"
	"repro/internal/obs"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// onlineTuner wires a small-budget online tuner over a workload, with an
// executor that records every run it actually performs.
func onlineTuner(t *testing.T, abbr string) (*Tuner, *workloads.Workload, *runRecorder) {
	t.Helper()
	w, err := workloads.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	rec := &runRecorder{}
	return &Tuner{
		Space: conf.StandardSpace(),
		Exec: ExecutorFunc(func(cfg conf.Config, dsizeMB float64) float64 {
			rec.record(cfg, dsizeMB)
			return sim.Run(&w.Program, dsizeMB, cfg).TotalSec
		}),
		Opt: Options{
			HM:   hm.Options{Trees: 120, LearningRate: 0.1, TreeComplexity: 5},
			GA:   ga.Options{PopSize: 24, Generations: 12},
			Seed: 1,
		},
	}, w, rec
}

type runRecorder struct {
	mu   sync.Mutex
	cfgs []conf.Config
	mbs  []float64
}

func (r *runRecorder) record(cfg conf.Config, mb float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfgs = append(r.cfgs, cfg)
	r.mbs = append(r.mbs, mb)
}

func (r *runRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cfgs)
}

func quickOnline() OnlineOptions {
	return OnlineOptions{ScreenSamples: 60, TopK: 8, Iterations: 2, IterBatch: 8, ExtraTrees: 60}
}

func TestTuneOnlineShapes(t *testing.T) {
	tuner, w, rec := onlineTuner(t, "TS")
	oo := quickOnline()
	target := w.InputMB(30)
	res, err := tuner.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), target, oo, RowHooks{})
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := oo.ScreenSamples + oo.Iterations*oo.IterBatch + 1
	if res.TotalRuns != wantRuns {
		t.Errorf("TotalRuns = %d, want %d", res.TotalRuns, wantRuns)
	}
	if rec.count() != wantRuns {
		t.Errorf("executor performed %d runs, want %d", rec.count(), wantRuns)
	}
	if res.Set.Len() != wantRuns {
		t.Errorf("observation set has %d rows, want %d", res.Set.Len(), wantRuns)
	}
	if len(res.Screened) != oo.TopK || len(res.Importance) != oo.TopK {
		t.Errorf("screened %d params with %d shares, want %d", len(res.Screened), len(res.Importance), oo.TopK)
	}
	for i := 1; i < len(res.Importance); i++ {
		if res.Importance[i] > res.Importance[i-1] {
			t.Errorf("importance not sorted: %v", res.Importance)
		}
	}
	if len(res.Iterations) != oo.Iterations {
		t.Fatalf("recorded %d iterations, want %d", len(res.Iterations), oo.Iterations)
	}
	for i, it := range res.Iterations {
		if it.Runs != oo.ScreenSamples+(i+1)*oo.IterBatch {
			t.Errorf("iteration %d cumulative runs = %d", i, it.Runs)
		}
		if it.BestMeasuredSec <= 0 || it.PredictedSec <= 0 {
			t.Errorf("iteration %d has non-positive times: %+v", i, it)
		}
		if i > 0 && !it.WarmStarted {
			t.Errorf("iteration %d refit was not warm-started despite hm.Resume support", i)
		}
	}
	if res.MeasuredSec <= 0 || res.PredictedSec <= 0 {
		t.Error("non-positive result times")
	}
	if res.Overhead.CollectClusterHours <= 0 || res.Overhead.ModelTrainSec <= 0 || res.Overhead.SearchSec <= 0 {
		t.Errorf("overhead accounting missing: %+v", res.Overhead)
	}
	// The tuned configuration must beat the default on a fresh simulator.
	evalSim := sparksim.New(cluster.Standard(), 101)
	tuned := evalSim.Run(&w.Program, target, res.Best).TotalSec
	def := evalSim.Run(&w.Program, target, tuner.Space.Default()).TotalSec
	if tuned >= def {
		t.Errorf("online tuning (%.1fs) did not beat the default (%.1fs)", tuned, def)
	}
}

// TestTuneOnlineSpans pins tune_online's child spans by count, never by
// time: "refit" once per iteration after the first plus the final refit
// (Iterations in all), "search" once per iteration plus the final search
// (Iterations+1).
func TestTuneOnlineSpans(t *testing.T) {
	tuner, w, _ := onlineTuner(t, "TS")
	reg := obs.NewRegistry()
	tuner.Obs = reg
	oo := quickOnline()
	if _, err := tuner.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), w.InputMB(30), oo, RowHooks{}); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, root := range reg.Snapshot().Spans {
		if root.Name != "tune_online" {
			continue
		}
		for _, c := range root.Children {
			got[c.Name] = c.Count
		}
	}
	it := int64(oo.Iterations)
	want := map[string]int64{"screen": 1, "model": 1, "refit": it, "search": it + 1, "iterate": it, "final": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tune_online child span counts = %v, want %v", got, want)
	}
}

func TestTuneOnlineDeterministic(t *testing.T) {
	run := func() (*OnlineResult, []byte) {
		tuner, w, _ := onlineTuner(t, "WC")
		res, err := tuner.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), w.InputMB(30), quickOnline(), RowHooks{})
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := res.Set.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return res, csv.Bytes()
	}
	a, csvA := run()
	b, csvB := run()
	if !reflect.DeepEqual(a.Best.Vector(), b.Best.Vector()) {
		t.Errorf("best configurations differ across identical runs:\n%v\n%v", a.Best.Vector(), b.Best.Vector())
	}
	if a.MeasuredSec != b.MeasuredSec || a.PredictedSec != b.PredictedSec {
		t.Errorf("result times differ: (%v,%v) vs (%v,%v)", a.MeasuredSec, a.PredictedSec, b.MeasuredSec, b.PredictedSec)
	}
	if !reflect.DeepEqual(a.Screened, b.Screened) {
		t.Errorf("screened parameters differ: %v vs %v", a.Screened, b.Screened)
	}
	if !reflect.DeepEqual(a.Iterations, b.Iterations) {
		t.Errorf("iteration records differ:\n%+v\n%+v", a.Iterations, b.Iterations)
	}
	if !bytes.Equal(csvA, csvB) {
		t.Error("observation sets differ across identical runs")
	}
}

// TestTuneOnlineResume is the journal contract: re-running with every
// observed (index, time) pair replayed through Known must perform zero
// fresh executions and reproduce the observation set and final
// configuration byte-for-byte. A partial replay (a kill mid-run) must
// execute only the missing rows and converge to the same result.
func TestTuneOnlineResume(t *testing.T) {
	tuner, w, rec := onlineTuner(t, "TS")
	oo := quickOnline()
	target := w.InputMB(30)
	var mu sync.Mutex
	journal := make(map[int]float64)
	res, err := tuner.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), target, oo, RowHooks{
		OnBatch: func(rows []RowTime) error {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rows {
				if _, dup := journal[r.Index]; dup {
					t.Errorf("row %d delivered twice", r.Index)
				}
				journal[r.Index] = r.TimeSec
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(journal) != res.TotalRuns {
		t.Fatalf("journal saw %d rows, result says %d runs", len(journal), res.TotalRuns)
	}
	var refCSV bytes.Buffer
	if err := res.Set.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}

	for _, keep := range []func(int) bool{
		func(int) bool { return true },                  // full replay: nothing re-executes
		func(i int) bool { return i < 70 },              // killed during iteration 1
		func(i int) bool { return i%3 != 0 },            // arbitrary holes
		func(i int) bool { return i >= len(journal)-5 }, // only the tail survived (impossible in practice, still correct)
	} {
		tuner2, _, rec2 := onlineTuner(t, "TS")
		want := 0
		for i := 0; i < len(journal); i++ {
			if !keep(i) {
				want++
			}
		}
		res2, err := tuner2.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), target, oo, RowHooks{
			Known: func(i int) (float64, bool) {
				if !keep(i) {
					return 0, false
				}
				sec, ok := journal[i]
				return sec, ok
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec2.count() != want {
			t.Errorf("resume re-executed %d rows, want %d", rec2.count(), want)
		}
		var csv bytes.Buffer
		if err := res2.Set.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv.Bytes(), refCSV.Bytes()) {
			t.Error("resumed observation set is not byte-identical")
		}
		if !reflect.DeepEqual(res2.Best.Vector(), res.Best.Vector()) {
			t.Error("resumed run chose a different final configuration")
		}
	}
	_ = rec
}

// TestTuneOnlineGuard pins the safety contract: no configuration the
// guard rejects is ever executed after screening, and rejections are
// counted.
func TestTuneOnlineGuard(t *testing.T) {
	tuner, w, rec := onlineTuner(t, "TS")
	oo := quickOnline()
	// A deliberately broad guard so rejections actually happen at this
	// small budget: veto any executor heap under 4 GiB.
	memIdx, ok := tuner.Space.Index(conf.ExecutorMemory)
	if !ok {
		t.Fatal("no ExecutorMemory parameter")
	}
	guard := func(cfg conf.Config, dsizeMB float64) bool {
		return cfg.At(memIdx) < 4096
	}
	oo.Guard = guard
	target := w.InputMB(30)
	res, err := tuner.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), target, oo, RowHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GuardRejections == 0 {
		t.Error("guard never fired; test is vacuous")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, cfg := range rec.cfgs {
		if i < oo.ScreenSamples {
			continue // screening samples the full space by design
		}
		if guard(cfg, rec.mbs[i]) {
			t.Errorf("run %d executed a guard-rejected configuration", i)
		}
	}
	if guard(res.Best, target) {
		t.Error("final configuration violates the guard")
	}
}

// TestSimOOMGuard smoke-checks the sparksim-backed guard against a
// configuration the memory accounting provably rejects.
func TestSimOOMGuard(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	space := conf.StandardSpace()
	guard := SimOOMGuard(cluster.Standard(), &w.Program, 0)
	mb := w.InputMB(w.Sizes[len(w.Sizes)-1])
	if guard(space.Default(), mb) {
		t.Error("guard rejects the default configuration")
	}
	starved := space.Default().
		Set(conf.ExecutorMemory, 1024).
		Set(conf.ExecutorCores, 12).
		Set(conf.MemoryFraction, 0.5).
		Set(conf.DefaultParallelism, 8).
		Set(conf.ReducerMaxSizeInFlight, 128).
		Set(conf.TaskMaxFailures, 1)
	if !guard(starved, mb) {
		t.Error("guard accepts a configuration the simulator aborts")
	}
	strict := SimOOMGuard(cluster.Standard(), &w.Program, 0.01)
	if !strict(space.Default(), mb) {
		t.Error("max-pressure threshold not applied")
	}
}

func TestTuneOnlineValidation(t *testing.T) {
	tuner, w, _ := onlineTuner(t, "TS")
	if _, err := tuner.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), 0, quickOnline(), RowHooks{}); err == nil {
		t.Error("zero target size accepted")
	}
	bad := quickOnline()
	bad.ScreenSamples = 5
	if _, err := tuner.TuneOnline(context.Background(), w.InputMB(10), w.InputMB(50), w.InputMB(30), bad, RowHooks{}); err == nil {
		t.Error("tiny screening sample accepted")
	}
}
