package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// quickCollect is a spec small enough to finish in milliseconds — the
// unit the lifecycle races run on.
func quickCollect(seed int64, ntrain int) JobSpec {
	return JobSpec{Type: JobCollect, Workload: "TS", NTrain: ntrain, Seed: seed, Quick: true, Parallelism: 2}
}

// jobFileState reads a job's persisted state straight from disk.
func jobFileState(t *testing.T, dataDir string, id int64) Job {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dataDir, "jobs", fmt.Sprintf("%d.json", id)))
	if err != nil {
		t.Fatalf("job %d has no persisted file: %v", id, err)
	}
	var j Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestCancelFinishRace hammers Cancel against job completion from both
// sides of the transition: whatever the interleaving, the job must land
// in exactly one terminal state (done or cancelled), stay there, and
// have its persisted file agree with memory — no late setState may
// overwrite a terminal state. Run under -race; exercised at GOMAXPROCS
// 1 and 4 because the interleavings differ.
func TestCancelFinishRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			dataDir := t.TempDir()
			m, err := NewManager(dataDir, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for round := 0; round < 12; round++ {
				id, deduped, err := m.Submit(quickCollect(int64(round+1), 24))
				if err != nil {
					t.Fatal(err)
				}
				if deduped {
					t.Fatalf("round %d: fresh spec deduped", round)
				}
				// Cancel concurrently with the run. Odd rounds give the job
				// a head start so some cancels race the completion itself
				// rather than the dequeue.
				done := make(chan struct{})
				go func() {
					defer close(done)
					if round%2 == 1 {
						time.Sleep(time.Duration(round) * time.Millisecond)
					}
					for {
						err := m.Cancel(id)
						if err == nil {
							j, _ := m.Get(id)
							if j.State == StateQueued || j.State == StateRunning {
								// Cancel was accepted while live; the pipeline
								// will notice. Keep nudging until terminal.
								time.Sleep(100 * time.Microsecond)
								continue
							}
						}
						return // terminal (either we cancelled it or it finished)
					}
				}()
				waitFor(t, 10*time.Second, func() bool {
					j, ok := m.Get(id)
					return ok && (j.State == StateDone || j.State == StateFailed || j.State == StateCancelled)
				})
				<-done
				j, _ := m.Get(id)
				switch j.State {
				case StateDone:
					if len(j.Result) == 0 {
						t.Fatalf("round %d: done job has no result", round)
					}
				case StateCancelled:
					// fine — cancel won
				default:
					t.Fatalf("round %d: job ended %q: %+v", round, j.State, j)
				}
				// The state must be stable and the persisted file must agree:
				// a loser writing late would flip one or the other.
				time.Sleep(5 * time.Millisecond)
				j2, _ := m.Get(id)
				if j2.State != j.State {
					t.Fatalf("round %d: terminal state flipped %q → %q", round, j.State, j2.State)
				}
				onDisk := jobFileState(t, dataDir, id)
				if onDisk.State != j2.State {
					t.Fatalf("round %d: disk says %q, memory says %q", round, onDisk.State, j2.State)
				}
			}
		})
	}
}

// TestCancelQueuedNeverRuns pins the cancel-before-dequeue point: a job
// cancelled while queued behind a blocker must never execute.
func TestCancelQueuedNeverRuns(t *testing.T) {
	dataDir := t.TempDir()
	m, err := NewManager(dataDir, 1, nil) // one worker so the victim queues
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := make(chan struct{})
	var once sync.Once
	m.testBatchHook = func(int) {
		once.Do(func() {}) // first checkpoint: blocker is running
		select {
		case <-release:
		case <-m.rootCtx.Done():
		}
	}
	blocker, _, err := m.Submit(quickCollect(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		j, _ := m.Get(blocker)
		return j.State == StateRunning
	})
	victim, _, err := m.Submit(quickCollect(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	if j, _ := m.Get(victim); j.State != StateCancelled {
		t.Fatalf("queued victim is %q after cancel", j.State)
	}
	close(release)
	waitFor(t, 10*time.Second, func() bool {
		j, _ := m.Get(blocker)
		return j.State == StateDone
	})
	// The victim must not have been revived by its queue entry.
	if j, _ := m.Get(victim); j.State != StateCancelled {
		t.Fatalf("cancelled victim became %q", j.State)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "journals", fmt.Sprintf("job-%d.journal", victim))); !os.IsNotExist(err) {
		t.Fatal("cancelled victim left a journal — it executed")
	}
}

// TestCancelThenResubmitRunsFresh is the dedup-after-cancel contract: the
// moment a running job's cancellation is requested, an identical spec
// submitted again must get a new job ID and really re-execute rather
// than dedup onto the doomed job.
func TestCancelThenResubmitRunsFresh(t *testing.T) {
	dataDir := t.TempDir()
	m, err := NewManager(dataDir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := quickCollect(9, 64)

	var held atomic.Bool
	held.Store(true)
	release := make(chan struct{})
	m.testBatchHook = func(int) {
		if held.Load() {
			select {
			case <-release:
			case <-m.rootCtx.Done():
			}
		}
	}
	first, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		j, _ := m.Get(first)
		return j.State == StateRunning
	})
	// Sanity: while running (and not cancelled), the same spec dedups.
	dup, deduped, err := m.Submit(spec)
	if err != nil || !deduped || dup != first {
		t.Fatalf("pre-cancel submit: id=%d deduped=%v err=%v, want dedup onto %d", dup, deduped, err, first)
	}

	if err := m.Cancel(first); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get(first)
	if !j.CancelRequested {
		t.Fatal("cancel request not recorded on the running job")
	}
	if disk := jobFileState(t, dataDir, first); !disk.CancelRequested {
		t.Fatal("cancel request not persisted")
	}

	// Resubmit while the old job is still winding down: must run fresh.
	second, deduped, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if deduped || second == first {
		t.Fatalf("post-cancel submit deduped onto the cancelled job (id=%d deduped=%v)", second, deduped)
	}

	held.Store(false)
	close(release)
	waitFor(t, 15*time.Second, func() bool {
		a, _ := m.Get(first)
		b, _ := m.Get(second)
		return a.State == StateCancelled && b.State == StateDone
	})
	// Real re-execution: the new job wrote its own journal and produced a
	// full result of its own.
	if _, err := os.Stat(filepath.Join(dataDir, "journals", fmt.Sprintf("job-%d.journal", second))); err != nil {
		t.Fatalf("resubmitted job has no journal of its own: %v", err)
	}
	b, _ := m.Get(second)
	var res struct {
		Rows int `json:"rows"`
	}
	if err := json.Unmarshal(b.Result, &res); err != nil || res.Rows != spec.NTrain {
		t.Fatalf("resubmitted job result %s (err %v), want %d fresh rows", b.Result, err, spec.NTrain)
	}
	// And a third submit now dedups onto the healthy finished job.
	third, deduped, err := m.Submit(spec)
	if err != nil || !deduped || third != second {
		t.Fatalf("post-completion submit: id=%d deduped=%v err=%v, want dedup onto %d", third, deduped, err, second)
	}
}

// TestAdoptionHonorsPendingCancel covers the daemon dying between a
// cancel request and the pipeline noticing: the restarted manager must
// mark the job cancelled, not resurrect it.
func TestAdoptionHonorsPendingCancel(t *testing.T) {
	dataDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dataDir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	spec := quickCollect(4, 40)
	j := Job{ID: 7, Spec: spec, State: StateRunning, SpecHash: specHash(spec), CancelRequested: true, CreatedUnix: 1, UpdatedUnix: 1}
	b, _ := json.Marshal(j)
	if err := os.WriteFile(filepath.Join(dataDir, "jobs", "7.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(dataDir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got, ok := m.Get(7)
	if !ok || got.State != StateCancelled {
		t.Fatalf("adopted job is %q, want cancelled honored across restart", got.State)
	}
	if disk := jobFileState(t, dataDir, 7); disk.State != StateCancelled {
		t.Fatalf("disk still says %q", disk.State)
	}
	// The cancelled job must not hold the dedup slot: same spec runs anew.
	id, deduped, err := m.Submit(spec)
	if err != nil || deduped || id == 7 {
		t.Fatalf("submit after adopted cancel: id=%d deduped=%v err=%v", id, deduped, err)
	}
}

// TestAdoptionBeyondQueueCap writes one more unfinished job than
// Submit's queue holds. NewManager must still return (it used to block
// sending the last adopted ID before any worker ran), the single worker
// must take the adopted jobs lowest ID first, Close must return
// promptly, and every job still unfinished on disk must be adopted again
// by the next manager.
func TestAdoptionBeyondQueueCap(t *testing.T) {
	dataDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dataDir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	n := int64(queueCap + 1)
	// A train job whose from_job does not exist fails as soon as it runs.
	spec := JobSpec{Type: JobTrain, FromJob: n + 1000}
	for id := int64(1); id <= n; id++ {
		j := Job{ID: id, Spec: spec, State: StateQueued, SpecHash: specHash(spec), CreatedUnix: 1, UpdatedUnix: 1}
		b, _ := json.Marshal(j)
		if err := os.WriteFile(filepath.Join(dataDir, "jobs", fmt.Sprintf("%d.json", id)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	type opened struct {
		m   *Manager
		err error
	}
	ch := make(chan opened, 1)
	go func() {
		m, err := NewManager(dataDir, 1, nil)
		ch <- opened{m, err}
	}()
	var m *Manager
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		m = o.m
	case <-time.After(30 * time.Second):
		t.Fatalf("NewManager still blocked after 30s adopting %d jobs", n)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if j, _ := m.Get(1); j.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			m.Close()
			t.Fatal("adopted job 1 never ran")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	m.Close()
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("Close took %v", took)
	}

	// One worker drains the queue in ID order, so the jobs that left
	// "queued" are exactly a prefix of the IDs.
	left := 0
	firstQueued := int64(0)
	for id := int64(1); id <= n; id++ {
		switch st := jobFileState(t, dataDir, id).State; {
		case st == StateQueued:
			if firstQueued == 0 {
				firstQueued = id
			}
			left++
		case firstQueued != 0:
			t.Fatalf("job %d is %q after queued job %d: adopted jobs ran out of ID order", id, st, firstQueued)
		case st == StateRunning:
			// Interrupted by Close; the next manager adopts it.
			left++
		}
	}
	if left == 0 {
		t.Fatal("every adopted job finished before Close; nothing left to re-adopt")
	}

	reg := obs.NewRegistry()
	m2, err := newManager(dataDir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := reg.Snapshot().Counters["serve.jobs.adopted"]; got != int64(left) || len(m2.queue) != left {
		t.Fatalf("next manager adopted %d and queued %d jobs, want %d", got, len(m2.queue), left)
	}
}

// TestSpecNumericValidation pins satellite 2's API half: negative
// budgets are rejected at Submit (and as HTTP 400), never silently
// misread downstream.
func TestSpecNumericValidation(t *testing.T) {
	m, err := NewManager(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	base := JobSpec{Type: JobTune, Workload: "TS", Quick: true}
	bad := []JobSpec{}
	for _, mut := range []func(*JobSpec){
		func(s *JobSpec) { s.NTrain = -1 },
		func(s *JobSpec) { s.Size = -5 },
		func(s *JobSpec) { s.Seed = -2 },
		func(s *JobSpec) { s.Parallelism = -1 },
		func(s *JobSpec) { s.HMTrees = -10 },
		func(s *JobSpec) { s.GAPop = -1 },
		func(s *JobSpec) { s.GAGenerations = -1 },
		func(s *JobSpec) { s.ExtraTrees = -1 },
		func(s *JobSpec) { s.ModelVersion = -1 },
		func(s *JobSpec) { s.ScreenSamples = -1 },
		func(s *JobSpec) { s.TopK = -1 },
		func(s *JobSpec) { s.Iterations = -1 },
		func(s *JobSpec) { s.IterBatch = -1 },
	} {
		s := base
		mut(&s)
		bad = append(bad, s)
	}
	for i, s := range bad {
		if _, _, err := m.Submit(s); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	// tune_online needs an importance-capable backend.
	if _, _, err := m.Submit(JobSpec{Type: JobTuneOnline, Workload: "TS", Backend: "svm", Quick: true}); err == nil {
		t.Error("tune_online with an importance-less backend accepted")
	}

	_, ts := newTestServer(t, obs.NewRegistry())
	for i, s := range bad {
		if code := postJSON(t, ts.URL+"/jobs", s, nil); code != http.StatusBadRequest {
			t.Errorf("bad spec %d returned HTTP %d, want 400", i, code)
		}
	}
}
