package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workloads"
)

// ErrSuperseded reports that a newer registration under this worker's
// name fenced this process out; the correct response is to exit, not
// retry — the coordinator will never accept this epoch again.
var ErrSuperseded = errors.New("fleet: worker superseded by a newer registration")

// RunnerFunc executes one leased chunk: the sweep rows named by indices,
// returning one result per index in the same order.
type RunnerFunc func(ctx context.Context, indices []int) ([]ResultRow, error)

// WorkerOptions configure a worker agent.
type WorkerOptions struct {
	// Coordinator is the daemon's base URL, e.g. "http://127.0.0.1:7077".
	Coordinator string
	// Name registers the worker under a stable identity; empty lets the
	// coordinator assign one. Reusing a name after a crash bumps the
	// epoch and revokes the dead process's leases immediately instead of
	// waiting out the lease TTL.
	Name string
	// Token is the shared secret sent as a Bearer token when the daemon
	// runs with -auth-token; empty sends none.
	Token string
	// Parallelism bounds the goroutines executing one chunk (0 and 1
	// keep it serial; `dac worker` defaults it to GOMAXPROCS). Results
	// are index-ordered either way — run times are a pure function of
	// each row's spec.
	Parallelism int
	// Client overrides the HTTP client (tests); nil uses a 30s-timeout
	// default.
	Client *http.Client
	// NewRunner builds the executor for a sweep spec. Nil uses
	// SimRunner, the production path. The worker caches one runner per
	// meta hash, so consecutive chunks of the same sweep reuse it.
	NewRunner func(spec SweepSpec, parallelism int) (RunnerFunc, error)
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Worker is the fleet's execution agent: it registers with the
// coordinator, heartbeats on the advertised cadence, leases chunks,
// executes them, and streams results back until its context cancels or
// a newer registration supersedes it.
type Worker struct {
	opt    WorkerOptions
	client *http.Client

	// mu guards the registration identity: Run's loop re-registers after
	// a coordinator restart while the heartbeat goroutine keeps reading.
	mu    sync.Mutex
	id    string
	epoch int64
	beat  time.Duration
	retry time.Duration

	runnerMeta string
	runner     RunnerFunc
}

// NewWorker returns an unregistered worker; Run drives it.
func NewWorker(opt WorkerOptions) *Worker {
	if opt.NewRunner == nil {
		opt.NewRunner = SimRunner
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	c := opt.Client
	if c == nil {
		c = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{opt: opt, client: c}
}

// ID reports the coordinator-assigned identity (after Run registers).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// identity snapshots the current registration under the lock.
func (w *Worker) identity() (id string, epoch int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id, w.epoch
}

// changedSince reports whether a re-registration replaced the given
// identity — the signal that a stale-epoch rejection raced the worker's
// own recovery rather than a genuine supersession.
func (w *Worker) changedSince(id string, epoch int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id != id || w.epoch != epoch
}

// Run registers and then works until ctx cancels (returns nil), the
// worker is superseded (ErrSuperseded), or the coordinator becomes
// persistently unreachable.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.mu.Lock()
	w.opt.Logf("fleet worker %s: registered (epoch %d, heartbeat %v)", w.id, w.epoch, w.beat)
	w.mu.Unlock()

	hbErr := make(chan error, 1)
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, hbErr)

	for {
		select {
		case <-ctx.Done():
			return nil
		case err := <-hbErr:
			return err
		default:
		}
		w.mu.Lock()
		id, retry := w.id, w.retry
		w.mu.Unlock()
		lease, err := w.lease(ctx)
		switch {
		case ctx.Err() != nil:
			return nil
		case errors.Is(err, ErrSuperseded):
			return err
		case errors.Is(err, errUnknownWorker):
			// Coordinator restarted and lost the registry: start over.
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		case err != nil:
			// Transient (network, 5xx): back off on the retry cadence.
			w.opt.Logf("fleet worker %s: lease: %v", id, err)
			if !sleep(ctx, retry) {
				return nil
			}
			continue
		}
		if !lease.Lease {
			wait := time.Duration(lease.RetryMS) * time.Millisecond
			if wait <= 0 {
				wait = retry
			}
			if !sleep(ctx, wait) {
				return nil
			}
			continue
		}
		if err := w.runChunk(ctx, lease); err != nil {
			if errors.Is(err, ErrSuperseded) {
				return err
			}
			if ctx.Err() != nil {
				return nil
			}
			w.opt.Logf("fleet worker %s: chunk %d/%d: %v", id, lease.Sweep, lease.Chunk, err)
			if !sleep(ctx, retry) {
				return nil
			}
		}
	}
}

func (w *Worker) register(ctx context.Context) error {
	var resp RegisterResponse
	if err := w.post(ctx, "/workers/register", registerRequest{Name: w.opt.Name}, &resp); err != nil {
		return fmt.Errorf("fleet: registering with %s: %w", w.opt.Coordinator, err)
	}
	beat := time.Duration(resp.HeartbeatMS) * time.Millisecond
	if beat <= 0 {
		beat = 2 * time.Second
	}
	retry := beat / 2
	if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	w.mu.Lock()
	w.id = resp.ID
	w.epoch = resp.Epoch
	w.beat = beat
	w.retry = retry
	w.mu.Unlock()
	return nil
}

// heartbeatLoop beats on the coordinator's advertised cadence, re-reading
// the registration each beat (Run may re-register after a coordinator
// restart). A stale epoch is fatal (the worker was superseded) — unless
// the rejected beat carried an identity the worker itself has since
// replaced, in which case the beat merely raced the re-registration and
// the loop carries on. Transient failures are retried — the lease TTL
// absorbs a few missed beats.
func (w *Worker) heartbeatLoop(ctx context.Context, fatal chan<- error) {
	for {
		w.mu.Lock()
		beat := w.beat
		w.mu.Unlock()
		if !sleep(ctx, beat) {
			return
		}
		id, epoch := w.identity()
		err := w.post(ctx, "/workers/"+id+"/heartbeat", epochRequest{Epoch: epoch}, nil)
		if errors.Is(err, ErrSuperseded) {
			if w.changedSince(id, epoch) {
				continue // our own re-registration superseded this beat
			}
			// A re-registration may still be in flight in Run's loop; give
			// it one beat to land before declaring the fence genuine.
			if !sleep(ctx, beat) {
				return
			}
			if w.changedSince(id, epoch) {
				continue
			}
			fatal <- err
			return
		}
		if err != nil && ctx.Err() == nil {
			w.opt.Logf("fleet worker %s: heartbeat: %v", id, err)
		}
	}
}

func (w *Worker) lease(ctx context.Context) (LeaseResponse, error) {
	id, epoch := w.identity()
	var resp LeaseResponse
	err := w.post(ctx, "/workers/"+id+"/lease", epochRequest{Epoch: epoch}, &resp)
	return resp, err
}

// runChunk validates the leased spec, executes its rows, and posts the
// results. A fence rejection (accepted=false) is not an error: the
// coordinator already rearranged the chunk, so the worker just moves on.
func (w *Worker) runChunk(ctx context.Context, lease LeaseResponse) error {
	if err := lease.Spec.Validate(); err != nil {
		return err
	}
	if w.runner == nil || w.runnerMeta != lease.Spec.MetaHash {
		r, err := w.opt.NewRunner(lease.Spec, w.opt.Parallelism)
		if err != nil {
			return err
		}
		w.runner, w.runnerMeta = r, lease.Spec.MetaHash
	}
	rows, err := w.runner(ctx, lease.Indices)
	if err != nil {
		return err
	}
	id, epoch := w.identity()
	var resp resultsResponse
	err = w.post(ctx, "/workers/"+id+"/results", resultsRequest{
		Epoch: epoch,
		Sweep: lease.Sweep,
		Chunk: lease.Chunk,
		Rows:  rows,
	}, &resp)
	if err != nil {
		return err
	}
	if !resp.Accepted {
		w.opt.Logf("fleet worker %s: chunk %d/%d rejected: %s", id, lease.Sweep, lease.Chunk, resp.Reason)
		return nil
	}
	w.opt.Logf("fleet worker %s: chunk %d/%d merged (%d rows)", id, lease.Sweep, lease.Chunk, len(rows))
	return nil
}

// post sends one JSON request and decodes the JSON answer. 409 maps to
// ErrSuperseded and 404 to errUnknownWorker — the two protocol statuses
// the worker reacts to structurally.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	url := strings.TrimSuffix(w.opt.Coordinator, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.opt.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.opt.Token)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return ErrSuperseded
	case http.StatusNotFound:
		return errUnknownWorker
	default:
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("fleet: %s: %s", path, e.Error)
		}
		return fmt.Errorf("fleet: %s: HTTP %d", path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// SimRunner builds the production executor for a sweep spec: the
// daemon's local path's tuner (core.NewSimTuner on the standard cluster,
// core.CollectJobs for the row list), so a worker's times are
// bit-identical to local execution. Each chunk runs through
// core.Tuner.ExecuteRows across parallelism goroutines (minimum 1).
func SimRunner(spec SweepSpec, parallelism int) (RunnerFunc, error) {
	wl, err := workloads.ByAbbr(spec.Workload)
	if err != nil {
		return nil, err
	}
	t := core.NewSimTuner(wl, cluster.Standard(),
		core.Options{NTrain: spec.NTrain, Seed: spec.Seed, Parallelism: max(parallelism, 1)}, nil)
	jobs := t.CollectJobs(spec.SizesMB)
	return func(ctx context.Context, indices []int) ([]ResultRow, error) {
		rows, err := t.ExecuteRows(ctx, jobs, indices)
		if err != nil {
			return nil, err
		}
		out := make([]ResultRow, len(rows))
		for i, r := range rows {
			out[i] = ResultRow{Index: r.Index, TimeSec: r.TimeSec}
		}
		return out, nil
	}, nil
}
