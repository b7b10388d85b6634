package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// testTuner builds the collect tuner the resume tests drive — small
// enough to run many interrupted sweeps, wired like the daemon's.
func testTuner(t *testing.T, ntrain int, seed int64, parallelism int) (*core.Tuner, *workloads.Workload, []float64) {
	t.Helper()
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), seed+7)
	tuner := &core.Tuner{
		Space: conf.StandardSpace(),
		Exec:  core.NewSimExecutor(sim, &w.Program),
		Opt:   core.Options{NTrain: ntrain, Seed: seed, Parallelism: parallelism},
	}
	lo, hi := trainingRange(w)
	return tuner, w, tuner.TrainingSizesMB(lo, hi)
}

func collectCSV(t *testing.T, tuner *core.Tuner, sizes []float64) []byte {
	t.Helper()
	set, _, err := tuner.Collect(sizes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runJournaledCollect drives one journal-backed sweep, cancelling the
// context once the journal holds at least killAfter rows (0 = run to
// completion). Returns the finished set's CSV when the sweep completed.
func runJournaledCollect(t *testing.T, tuner *core.Tuner, sizes []float64, path, meta string, killAfter int) ([]byte, error) {
	t.Helper()
	jl, err := journal.Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set, _, err := tuner.CollectResumable(ctx, sizes, core.RowHooks{
		Known: jl.Known,
		OnBatch: func(rows []core.RowTime) error {
			if err := jl.Append(rows); err != nil {
				t.Error(err)
			}
			if killAfter > 0 && jl.Rows() >= killAfter {
				cancel() // the "SIGKILL": no further batches run
			}
			return nil
		},
		BatchRows: 8,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), nil
}

// TestKillAndResumeByteIdentical is the satellite-4 acceptance test: a
// collect killed mid-sweep at several row offsets and resumed against the
// same journal must finish with a CSV byte-identical to an uninterrupted
// run — at GOMAXPROCS 1 and 4 — without re-running completed rows.
func TestKillAndResumeByteIdentical(t *testing.T) {
	const ntrain = 120
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			tuner, w, sizes := testTuner(t, ntrain, 1, 0)
			ref := collectCSV(t, tuner, sizes)
			meta := journal.MetaHash(w.Abbr, 1, ntrain, sizes)

			for _, killAfter := range []int{1, 16, 57, 113} {
				path := filepath.Join(t.TempDir(), "sweep.journal")
				if _, err := runJournaledCollect(t, tuner, sizes, path, meta, killAfter); err == nil {
					t.Fatalf("killAfter=%d: interrupted sweep reported success", killAfter)
				}

				// "Restart": reopen the journal; completed rows must not run
				// again.
				jl, err := journal.Open(path, meta)
				if err != nil {
					t.Fatal(err)
				}
				journaled := jl.Rows()
				jl.Close()
				if journaled < killAfter {
					t.Fatalf("killAfter=%d: only %d rows journaled", killAfter, journaled)
				}
				var reruns atomic.Int64
				jl2, err := journal.Open(path, meta)
				if err != nil {
					t.Fatal(err)
				}
				set, _, err := tuner.CollectResumable(context.Background(), sizes, core.RowHooks{
					Known: func(i int) (float64, bool) {
						sec, ok := jl2.Known(i)
						return sec, ok
					},
					OnBatch: func(rows []core.RowTime) error {
						for _, r := range rows {
							if _, ok := jl2.Known(r.Index); ok {
								reruns.Add(1)
							}
						}
						if err := jl2.Append(rows); err != nil {
							t.Error(err)
						}
						return nil
					},
					BatchRows: 8,
				})
				jl2.Close()
				if err != nil {
					t.Fatalf("killAfter=%d: resume failed: %v", killAfter, err)
				}
				if n := reruns.Load(); n != 0 {
					t.Fatalf("killAfter=%d: %d completed rows were re-executed", killAfter, n)
				}
				var buf bytes.Buffer
				if err := set.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), ref) {
					t.Fatalf("killAfter=%d: resumed CSV differs from uninterrupted run", killAfter)
				}
			}
		})
	}
}

// TestKillResumeWithTornTail chains both failure modes: the daemon dies
// mid-batch leaving a torn journal line, restarts, and still finishes
// with the exact training set.
func TestKillResumeWithTornTail(t *testing.T) {
	const ntrain = 80
	tuner, w, sizes := testTuner(t, ntrain, 3, 2)
	ref := collectCSV(t, tuner, sizes)
	meta := journal.MetaHash(w.Abbr, 3, ntrain, sizes)

	path := filepath.Join(t.TempDir(), "sweep.journal")
	if _, err := runJournaledCollect(t, tuner, sizes, path, meta, 24); err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	// The SIGKILL tore the last line mid-write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("r,999,1.2")
	f.Close()

	csv, err := runJournaledCollect(t, tuner, sizes, path, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, ref) {
		t.Fatal("torn-tail resume CSV differs from uninterrupted run")
	}
}

// TestManagerRestartResumesCollect is the daemon-level restart story: a
// Manager closed mid-collect leaves the job running on disk; a new
// Manager over the same data directory adopts it, resumes from the
// journal, and the final CSV matches a direct, uninterrupted Collect.
// The test batch hook holds the collect workers once the journal has 40
// rows, so the shutdown always lands on a genuinely partial sweep.
func TestManagerRestartResumesCollect(t *testing.T) {
	const ntrain = 600
	dataDir := t.TempDir()
	tuner, _, sizes := testTuner(t, ntrain, 1, 0)
	ref := collectCSV(t, tuner, sizes)

	m1, err := NewManager(dataDir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	var once sync.Once
	m1.testBatchHook = func(rows int) {
		if rows >= 40 {
			once.Do(func() { close(reached) })
			// Hold this collect worker until the daemon shuts down —
			// the in-flight sweep can never finish.
			<-m1.rootCtx.Done()
		}
	}
	id, _, err := m1.Submit(JobSpec{Type: JobCollect, Workload: "TS", NTrain: ntrain, Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("collect never reached 40 journaled rows")
	}
	m1.Close()

	j1, ok := mustLoadJobFile(t, dataDir, id)
	if !ok || j1.State != StateRunning {
		t.Fatalf("job after shutdown: %+v (want state %q on disk so the next daemon adopts it)", j1, StateRunning)
	}

	journalPath := filepath.Join(dataDir, "journals", fmt.Sprintf("job-%d.journal", id))
	jl, err := journal.Open(journalPath, journal.MetaHash("TS", 1, ntrain, sizes))
	if err != nil {
		t.Fatal(err)
	}
	progress := jl.Rows()
	jl.Close()
	if progress == 0 || progress >= ntrain {
		t.Fatalf("journal has %d rows at restart; want a genuine partial sweep", progress)
	}

	m2, err := NewManager(dataDir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	waitFor(t, 30*time.Second, func() bool {
		j, ok := m2.Get(id)
		return ok && j.State == StateDone
	})
	j, _ := m2.Get(id)
	var res struct {
		Rows int    `json:"rows"`
		CSV  string `json:"csv"`
	}
	if err := json.Unmarshal(j.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Rows != ntrain {
		t.Fatalf("resumed collect produced %d rows, want %d", res.Rows, ntrain)
	}
	got, err := os.ReadFile(res.CSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("CSV from the restarted daemon differs from an uninterrupted Collect")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}

func mustLoadJobFile(t *testing.T, dataDir string, id int64) (Job, bool) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dataDir, "jobs", fmt.Sprintf("%d.json", id)))
	if err != nil {
		return Job{}, false
	}
	var j Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	return j, true
}

// TestJournalEmptyFileGetsHeader pins that a job journal left empty by a
// crash between create and header write is initialized when the job
// reopens it, not rejected, and that the rows appended after that
// survive the next reopen.
func TestJournalEmptyFileGetsHeader(t *testing.T) {
	m, err := newManager(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const id = 7
	path := filepath.Join(m.dataDir, "journals", fmt.Sprintf("job-%d.journal", id))
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	meta := journal.MetaHash("TS", 1, 10, []float64{10})
	jl, hooks, err := m.jobJournal(id, meta, "collect")
	if err != nil {
		t.Fatal(err)
	}
	if err := hooks.OnBatch([]core.RowTime{{Index: 0, TimeSec: 1.5}}); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	re, _, err := m.jobJournal(id, meta, "collect")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Rows() != 1 {
		t.Fatalf("rows = %d, want 1", re.Rows())
	}
	if sec, ok := re.Known(0); !ok || sec != 1.5 {
		t.Fatalf("Known(0) = %v, %v; want 1.5, true", sec, ok)
	}
}
