package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// onlineSpec is the small-but-real budget the tune_online tests run at:
// 40 screening rows + 2×6 candidates + 1 confirmation = 53 runs.
func onlineSpec() JobSpec {
	return JobSpec{
		Type: JobTuneOnline, Workload: "TS", Size: 30, Seed: 3, Quick: true,
		ScreenSamples: 40, TopK: 6, Iterations: 2, IterBatch: 6, Parallelism: 2,
	}
}

type onlineJobResult struct {
	Workload        string             `json:"workload"`
	TargetMB        float64            `json:"target_mb"`
	Best            map[string]float64 `json:"best"`
	Vector          []float64          `json:"vector"`
	MeasuredSec     float64            `json:"measured_sec"`
	PredictedSec    float64            `json:"predicted_sec"`
	Screened        []string           `json:"screened"`
	TotalRuns       int                `json:"total_runs"`
	GuardRejections int                `json:"guard_rejections"`
	Iterations      []struct {
		Runs            int     `json:"runs"`
		WarmStarted     bool    `json:"warm_started"`
		PredictedSec    float64 `json:"predicted_sec"`
		BestMeasuredSec float64 `json:"best_measured_sec"`
	} `json:"iterations"`
	Model        string `json:"model"`
	ModelVersion int    `json:"model_version"`
}

func decodeOnlineResult(t *testing.T, j Job) onlineJobResult {
	t.Helper()
	var res onlineJobResult
	if err := json.Unmarshal(j.Result, &res); err != nil {
		t.Fatalf("decoding tune_online result: %v (%s)", err, j.Result)
	}
	return res
}

// TestTuneOnlineJob runs the online loop as a daemon job end to end:
// per-phase progress is visible while it runs, the result carries the
// screened parameters and per-iteration records, and the final model is
// registered for later search/warm-start jobs.
func TestTuneOnlineJob(t *testing.T) {
	dataDir := t.TempDir()
	m, err := NewManager(dataDir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var phaseMu sync.Mutex
	phases := map[string]bool{}
	var pending int64
	m.testBatchHook = func(int) {
		phaseMu.Lock()
		defer phaseMu.Unlock()
		if j, ok := m.Get(pending); ok {
			phases[j.Progress.Phase] = true
		}
	}
	spec := onlineSpec()
	id, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	phaseMu.Lock()
	pending = id
	phaseMu.Unlock()
	waitFor(t, 60*time.Second, func() bool {
		j, _ := m.Get(id)
		return j.State == StateDone || j.State == StateFailed || j.State == StateCancelled
	})
	j, _ := m.Get(id)
	if j.State != StateDone {
		t.Fatalf("tune_online job ended %q: %s", j.State, j.Error)
	}
	res := decodeOnlineResult(t, j)
	wantRuns := spec.ScreenSamples + spec.Iterations*spec.IterBatch + 1
	if res.TotalRuns != wantRuns {
		t.Errorf("total_runs = %d, want %d", res.TotalRuns, wantRuns)
	}
	if len(res.Screened) != spec.TopK {
		t.Errorf("screened %d parameters, want %d", len(res.Screened), spec.TopK)
	}
	if len(res.Iterations) != spec.Iterations {
		t.Fatalf("%d iteration records, want %d", len(res.Iterations), spec.Iterations)
	}
	for i, it := range res.Iterations {
		if it.Runs != spec.ScreenSamples+(i+1)*spec.IterBatch {
			t.Errorf("iteration %d cumulative runs = %d", i, it.Runs)
		}
		if i > 0 && !it.WarmStarted {
			t.Errorf("iteration %d was not warm-started", i)
		}
	}
	if res.MeasuredSec <= 0 || res.PredictedSec <= 0 || len(res.Vector) == 0 {
		t.Errorf("implausible result: %+v", res)
	}
	if !phases["iterate"] {
		t.Errorf("iteration progress never surfaced; phases seen: %v", phases)
	}
	if res.Model == "" || res.ModelVersion == 0 {
		t.Error("final online model was not registered")
	}
	if _, _, err := m.models.Load(res.Model, res.ModelVersion); err != nil {
		t.Errorf("registered model unloadable: %v", err)
	}
	// The journal holds the full trajectory.
	jl, err := journal.Open(filepath.Join(dataDir, "journals", fmt.Sprintf("job-%d.journal", id)), onlineJournalMeta(t, m, spec, id))
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if jl.Rows() != wantRuns {
		t.Errorf("journal has %d rows, want %d", jl.Rows(), wantRuns)
	}
}

// onlineJournalMeta reproduces runTuneOnline's journal identity for a
// spec so tests can open the job's journal directly.
func onlineJournalMeta(t *testing.T, m *Manager, spec JobSpec, id int64) string {
	t.Helper()
	w := mustWorkload(t, spec.Workload)
	tuner := m.tunerFor(w, spec)
	oo := spec.onlineOptions()
	sizes := tuner.TrainingSizesMB(w.TrainingRangeMB())
	onlineID := fmt.Sprintf("online:%s:%d:%d:%d:%d:%s", w.Abbr,
		oo.ScreenSamples, oo.TopK, oo.Iterations, oo.IterBatch,
		strconv.FormatFloat(w.TargetMB(spec.Size), 'g', -1, 64))
	return journal.MetaHash(onlineID, tuner.Opt.Seed, oo.ScreenSamples+oo.Iterations*oo.IterBatch+1, sizes)
}

// TestTuneOnlineJobRestartResume is the tentpole's durability criterion:
// a daemon killed inside the loop leaves the job running on disk with a partial
// journal; the restarted daemon adopts it, replays the journaled rows
// instead of re-running them, and lands on the identical final
// configuration an uninterrupted daemon produces.
func TestTuneOnlineJobRestartResume(t *testing.T) {
	spec := onlineSpec()
	totalRuns := spec.ScreenSamples + spec.Iterations*spec.IterBatch + 1

	// Reference: the same spec, uninterrupted, in its own daemon.
	refDir := t.TempDir()
	mRef, err := NewManager(refDir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	refID, _, err := mRef.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, func() bool {
		j, _ := mRef.Get(refID)
		return j.State == StateDone
	})
	refJob, _ := mRef.Get(refID)
	ref := decodeOnlineResult(t, refJob)
	mRef.Close()

	// Interrupted daemon: hold the loop once the first candidate batch
	// has journaled (40 screening rows + 6 candidates), then shut down.
	dataDir := t.TempDir()
	m1, err := NewManager(dataDir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	var once sync.Once
	m1.testBatchHook = func(rows int) {
		if rows >= spec.ScreenSamples+spec.IterBatch {
			once.Do(func() { close(reached) })
			<-m1.rootCtx.Done()
		}
	}
	id, _, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(60 * time.Second):
		t.Fatal("online loop never reached the hold point")
	}
	m1.Close()

	onDisk := jobFileState(t, dataDir, id)
	if onDisk.State != StateRunning {
		t.Fatalf("job after shutdown is %q on disk, want %q for adoption", onDisk.State, StateRunning)
	}
	jl, err := journal.Open(filepath.Join(dataDir, "journals", fmt.Sprintf("job-%d.journal", id)), onlineJournalMeta(t, m1, spec, id))
	if err != nil {
		t.Fatal(err)
	}
	progress := jl.Rows()
	jl.Close()
	if progress < spec.ScreenSamples+spec.IterBatch || progress >= totalRuns {
		t.Fatalf("journal has %d rows at restart; want a genuine partial trajectory", progress)
	}

	reg := obs.NewRegistry()
	m2, err := NewManager(dataDir, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	waitFor(t, 60*time.Second, func() bool {
		j, ok := m2.Get(id)
		return ok && (j.State == StateDone || j.State == StateFailed)
	})
	j, _ := m2.Get(id)
	if j.State != StateDone {
		t.Fatalf("resumed tune_online ended %q: %s", j.State, j.Error)
	}
	got := decodeOnlineResult(t, j)
	if !reflect.DeepEqual(got.Vector, ref.Vector) {
		t.Errorf("resumed run chose a different configuration:\n%v\n%v", got.Vector, ref.Vector)
	}
	if got.MeasuredSec != ref.MeasuredSec || got.TotalRuns != ref.TotalRuns {
		t.Errorf("resumed result drifted: measured %v vs %v, runs %d vs %d",
			got.MeasuredSec, ref.MeasuredSec, got.TotalRuns, ref.TotalRuns)
	}
	if !reflect.DeepEqual(got.Screened, ref.Screened) {
		t.Errorf("resumed screening differs: %v vs %v", got.Screened, ref.Screened)
	}
	if n := reg.Counter("serve.online.resumed.rows").Value(); n != int64(progress) {
		t.Errorf("resumed-rows counter = %d, want %d journaled rows replayed", n, progress)
	}
}

func mustWorkload(t *testing.T, abbr string) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByAbbr(strings.ToUpper(abbr))
	if err != nil {
		t.Fatal(err)
	}
	return w
}
