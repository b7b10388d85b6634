package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// fleetSpec is the sweep the fleet acceptance tests run: small enough to
// finish fast, large enough for several chunks at ChunkRows 8.
var fleetSpec = JobSpec{Type: JobCollect, Workload: "TS", NTrain: 40, Seed: 9}

// newFleetServer starts a coordinator-enabled daemon over a temp data
// dir with a short lease TTL, so chaos tests see expiry quickly.
func newFleetServer(t *testing.T, reg *obs.Registry, opts ServerOptions) (*Server, *httptest.Server) {
	t.Helper()
	opts.Obs = reg
	s, err := NewServerOpts(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// startFleetWorker runs a worker agent against base until its context
// cancels. newRunner nil takes the production SimRunner.
func startFleetWorker(t *testing.T, ctx context.Context, base, name string,
	newRunner func(fleet.SweepSpec, int) (fleet.RunnerFunc, error)) chan error {
	t.Helper()
	w := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator: base,
		Name:        name,
		Parallelism: 2,
		NewRunner:   newRunner,
	})
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return done
}

func waitLive(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Fleet().LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered in time", s.Fleet().LiveWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetCollectByteIdenticalAfterWorkerKill is the fleet's acceptance
// criterion (DESIGN.md §15): a collect sweep sharded across workers —
// one of which dies mid-chunk, forcing a lease expiry and requeue —
// produces a CSV byte-identical to the single-process reference, at
// GOMAXPROCS 1 and 4.
func TestFleetCollectByteIdenticalAfterWorkerKill(t *testing.T) {
	// Reference: the plain in-process collector at the same spec, the
	// same wiring the daemon's local path uses.
	tuner, _, sizes := testTuner(t, fleetSpec.NTrain, fleetSpec.Seed, 2)
	want := collectCSV(t, tuner, sizes)

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			reg := obs.NewRegistry()
			s, ts := newFleetServer(t, reg, ServerOptions{
				Workers: 1,
				Fleet:   FleetOptions{Enabled: true, LeaseTTL: 300 * time.Millisecond, ChunkRows: 8},
			})

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			// The victim worker "SIGKILLs" mid-chunk: its runner signals
			// that it holds a lease, then blocks until the process is torn
			// down — it never posts results and never heartbeats again,
			// which is exactly what the coordinator sees when a worker is
			// kill -9'd.
			victimCtx, killVictim := context.WithCancel(ctx)
			defer killVictim()
			leased := make(chan struct{}, 1)
			victimDone := startFleetWorker(t, victimCtx, ts.URL, "victim",
				func(spec fleet.SweepSpec, parallelism int) (fleet.RunnerFunc, error) {
					return func(rctx context.Context, indices []int) ([]fleet.ResultRow, error) {
						select {
						case leased <- struct{}{}:
						default:
						}
						<-rctx.Done()
						return nil, rctx.Err()
					}, nil
				})
			waitLive(t, s, 1)

			job := make(chan Job, 1)
			go func() { job <- submitAndWait(t, ts.URL, fleetSpec, 60*time.Second) }()

			// Wait until the victim holds a leased chunk, then kill it and
			// bring up the survivor that must inherit the requeued chunk.
			select {
			case <-leased:
			case <-ctx.Done():
				t.Fatal("victim never leased a chunk")
			}
			killVictim()
			<-victimDone
			survivorDone := startFleetWorker(t, ctx, ts.URL, "survivor", nil)

			j := <-job
			if j.State != StateDone {
				t.Fatalf("fleet collect job ended %s: %v", j.State, j.Error)
			}
			cancel()
			<-survivorDone

			if got := reg.Counter("fleet.leases.requeued").Value(); got < 1 {
				t.Fatalf("fleet.leases.requeued = %d, want >= 1 (victim's chunk must requeue)", got)
			}
			if got := reg.Counter("fleet.rows.merged").Value(); got != int64(fleetSpec.NTrain) {
				t.Fatalf("fleet.rows.merged = %d, want %d", got, fleetSpec.NTrain)
			}

			got, err := os.ReadFile(s.Manager().collectCSVPath(j.ID))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("fleet CSV differs from single-process reference (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// A collect submitted while no workers are live runs on the local pool —
// the coordinator never sees a sweep — and still matches the reference.
func TestFleetFallsBackToLocalPoolWithoutWorkers(t *testing.T) {
	tuner, _, sizes := testTuner(t, fleetSpec.NTrain, fleetSpec.Seed, 2)
	want := collectCSV(t, tuner, sizes)

	reg := obs.NewRegistry()
	s, ts := newFleetServer(t, reg, ServerOptions{
		Workers: 1,
		Fleet:   FleetOptions{Enabled: true, LeaseTTL: 300 * time.Millisecond, ChunkRows: 8},
	})
	j := submitAndWait(t, ts.URL, fleetSpec, 60*time.Second)
	if j.State != StateDone {
		t.Fatalf("job ended %s: %v", j.State, j.Error)
	}
	if got := reg.Counter("serve.collect.fleet.sweeps").Value(); got != 0 {
		t.Fatalf("sweep went through the fleet with no workers (counter=%d)", got)
	}
	got, err := os.ReadFile(s.Manager().collectCSVPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("local-fallback CSV differs from reference")
	}
}

// TestRestartWiresBeforeAdoptedJobs restarts a coordinator-enabled
// daemon over a data directory that holds an unfinished collect job.
// The adopted job runs to done, and it must not start before the daemon
// is wired: run under -race, a worker that reads the manager's
// coordinator while the constructor still sets it is a data race.
func TestRestartWiresBeforeAdoptedJobs(t *testing.T) {
	dataDir := t.TempDir()
	// The previous daemon persisted the job as running, then died.
	b, err := json.Marshal(Job{ID: 1, Spec: fleetSpec, State: StateRunning, SpecHash: specHash(fleetSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dataDir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "jobs", "1.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewServerOpts(dataDir, ServerOptions{Workers: 1, Fleet: FleetOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitFor(t, 60*time.Second, func() bool {
		j, ok := s.Manager().Get(1)
		return ok && j.State == StateDone
	})
}

// The shared secret gates every mutating endpoint; reads stay open.
func TestAuthTokenGatesMutatingEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newFleetServer(t, reg, ServerOptions{
		Workers:   1,
		Fleet:     FleetOptions{Enabled: true},
		AuthToken: "s3cret",
	})

	// Mutating endpoints refuse without (or with the wrong) token.
	for _, path := range []string{"/jobs", "/workers/register", "/workers/x/heartbeat", "/workers/x/lease", "/workers/x/results", "/jobs/1/cancel"} {
		if code := postJSON(t, ts.URL+path, map[string]any{}, nil); code != http.StatusUnauthorized {
			t.Fatalf("POST %s without token = %d, want 401", path, code)
		}
	}
	req, _ := http.NewRequest("POST", ts.URL+"/workers/register", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token = %d, want 401", resp.StatusCode)
	}
	if got := reg.Counter("serve.auth.denied").Value(); got < 7 {
		t.Fatalf("serve.auth.denied = %d, want >= 7", got)
	}

	// Reads stay open.
	if code := getJSON(t, ts.URL+"/jobs", nil); code != http.StatusOK {
		t.Fatalf("GET /jobs = %d, want 200 (reads are not gated)", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}

	// The right token works end to end — including a worker agent
	// carrying it through the whole protocol.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := fleet.NewWorker(fleet.WorkerOptions{Coordinator: ts.URL, Name: "authed", Token: "s3cret", Parallelism: 1})
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(ctx) }()

	var sub struct {
		ID int64 `json:"id"`
	}
	body, err := json.Marshal(JobSpec{Type: JobCollect, Workload: "TS", NTrain: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	req2, _ := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("Authorization", "Bearer s3cret")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("authed submit = %d, want 202", resp2.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var j Job
		getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, sub.ID), &j)
		if j.State == StateDone {
			break
		}
		if j.State == StateFailed || j.State == StateCancelled || time.Now().After(deadline) {
			t.Fatalf("authed job state %s: %v", j.State, j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-workerDone; err != nil {
		t.Fatalf("authed worker: %v", err)
	}
}
