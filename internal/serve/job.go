package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/ga"
	"repro/internal/hm"
	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/workloads"
)

// JobType selects which pipeline slice a job runs.
type JobType string

const (
	// JobCollect runs the collecting component and stores the training
	// CSV under the data directory. Durable: rows journal as they
	// complete, and a restarted daemon resumes the sweep.
	JobCollect JobType = "collect"
	// JobTrain fits (or warm-starts) an HM model on a finished collect
	// job's CSV and registers it.
	JobTrain JobType = "train"
	// JobSearch runs the GA against a registered model for one target
	// size.
	JobSearch JobType = "search"
	// JobTune runs the full pipeline — durable collect, model, search —
	// and registers the model.
	JobTune JobType = "tune"
	// JobTuneOnline runs the online importance-screened loop: a small
	// screening sample, then iterative measure→refit→search rounds over
	// the significant subspace with an OOM safety guard. Durable like
	// collect: every measured run journals, and a restarted daemon
	// replays the trajectory to the exact same final configuration.
	JobTuneOnline JobType = "tune_online"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobSpec is the client-submitted description of one job. Budgets left
// zero take the paper's settings (ntrain 2000, 3600 trees, GA 100×100);
// Quick selects small smoke-test budgets; explicit values win over both.
// The same seed and budgets produce the same result as the equivalent
// `dac` CLI invocation — the service adds durability, not different math.
type JobSpec struct {
	Type     JobType `json:"type"`
	Workload string  `json:"workload"`
	// Size is the target datasize in the workload's units (search/tune);
	// 0 selects the middle Table 1 size, like the CLI.
	Size float64 `json:"size,omitempty"`
	// NTrain is the number of vectors to collect (collect/tune).
	NTrain int   `json:"ntrain,omitempty"`
	Seed   int64 `json:"seed,omitempty"` // default 1
	// Model names the registry entry to read (train warm-start source /
	// search) or write (train/tune); default: the workload abbreviation,
	// lowercased.
	Model        string `json:"model,omitempty"`
	ModelVersion int    `json:"model_version,omitempty"` // 0 = latest
	// Backend selects which model backend train/tune jobs fit
	// (hm|rf|rs|ann|svm); default hm, the paper's model. Warm-start is
	// only accepted when the backend implements model.Resumer.
	Backend string `json:"backend,omitempty"`
	// Searcher selects which registered searcher search/tune/tune_online
	// jobs minimize the model with (ga|tpe|random|rrs|pattern|anneal);
	// default ga, the paper's searcher — the default path is
	// byte-identical to the CLI's.
	Searcher string `json:"searcher,omitempty"`
	// FromJob is the finished collect (or tune) job whose CSV feeds a
	// train job.
	FromJob int64 `json:"from_job,omitempty"`
	// WarmFrom, for train jobs, names a registered model to continue via
	// hm.Resume instead of training from scratch; ExtraTrees bounds the
	// added boosting budget (default 400).
	WarmFrom    string `json:"warm_from,omitempty"`
	WarmVersion int    `json:"warm_version,omitempty"`
	ExtraTrees  int    `json:"extra_trees,omitempty"`
	// Quick shrinks every budget for smoke tests: ntrain 200, 120 trees,
	// GA 20×10.
	Quick bool `json:"quick,omitempty"`
	// Explicit budget overrides (testing and CI).
	HMTrees       int `json:"hm_trees,omitempty"`
	GAPop         int `json:"ga_pop,omitempty"`
	GAGenerations int `json:"ga_generations,omitempty"`
	// Parallelism bounds concurrent executions while collecting
	// (0 = GOMAXPROCS). Results are identical for any value.
	Parallelism int `json:"parallelism,omitempty"`
	// Online loop budgets (tune_online only; 0 = core defaults, shrunk by
	// Quick): screening-sample size, surviving parameter count, iteration
	// count, and measured runs per iteration.
	ScreenSamples int `json:"screen_samples,omitempty"`
	TopK          int `json:"top_k,omitempty"`
	Iterations    int `json:"iterations,omitempty"`
	IterBatch     int `json:"iter_batch,omitempty"`
}

// Progress is a job's live phase/counter state.
type Progress struct {
	Phase string `json:"phase,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
}

// Job is one unit of daemon work, persisted as jobs/<id>.json on every
// state transition so a restarted daemon re-adopts its queue.
type Job struct {
	ID    int64   `json:"id"`
	Spec  JobSpec `json:"spec"`
	State string  `json:"state"`
	// SpecHash fingerprints the spec for submission dedup: submitting a
	// spec whose hash matches a queued, running, or done job returns that
	// job instead of enqueueing a duplicate.
	SpecHash string `json:"spec_hash,omitempty"`
	// Deduped counts submissions that were folded into this job.
	Deduped int `json:"deduped,omitempty"`
	// CancelRequested marks a running job whose cancellation was asked
	// for but not yet observed by the pipeline. Such a job no longer
	// absorbs resubmissions — an identical spec submitted after the
	// cancel runs fresh.
	CancelRequested bool            `json:"cancel_requested,omitempty"`
	Error           string          `json:"error,omitempty"`
	Result          json.RawMessage `json:"result,omitempty"`
	Progress        Progress        `json:"progress"`
	CreatedUnix     int64           `json:"created_unix"`
	UpdatedUnix     int64           `json:"updated_unix"`
}

// specHash fingerprints a spec by hashing its canonical JSON form.
func specHash(spec JobSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		return "" // unreachable: JobSpec is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Manager owns the daemon's job queue: a bounded worker pool executing
// jobs over the core pipeline, with every state transition persisted.
// Restarting a Manager over the same data directory re-enqueues jobs
// that were queued or running; an interrupted collect resumes from its
// journal instead of re-running completed rows.
type Manager struct {
	dataDir string
	models  *ModelRegistry
	obs     *obs.Registry

	mu      sync.Mutex
	jobs    map[int64]*Job
	byHash  map[string]int64 // spec hash → most recent job with it
	cancels map[int64]context.CancelFunc
	nextID  int64

	queue      chan int64
	wg         sync.WaitGroup
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// fleet, when non-nil, is the coordinator collect sweeps shard
	// through whenever it has live workers (fleet.go); without workers
	// (or without a coordinator) sweeps run on the local pool. Set
	// before the workers start and never changed.
	fleet *fleet.Coordinator

	// testBatchHook, when non-nil, observes every journaled collect
	// checkpoint (cumulative journaled row count). Tests use it to hold
	// collect workers mid-sweep and exercise the restart path
	// deterministically.
	testBatchHook func(journaledRows int)
}

// queueCap is how many submitted jobs may wait for a worker before
// Submit rejects with "job queue full".
const queueCap = 4096

// NewManager opens the data directory, adopts any persisted jobs
// (re-enqueueing unfinished ones in ID order), and starts workers
// worker goroutines (min 1).
func NewManager(dataDir string, workers int, reg *obs.Registry) (*Manager, error) {
	m, err := newManager(dataDir, reg)
	if err != nil {
		return nil, err
	}
	m.start(workers)
	return m, nil
}

// newManager is NewManager without the workers: adopted jobs wait in the
// queue until start, so a caller can finish wiring the manager (fleet,
// registry hook) before any job reads it.
func newManager(dataDir string, reg *obs.Registry) (*Manager, error) {
	for _, d := range []string{"jobs", "journals", "collect", "models"} {
		if err := os.MkdirAll(filepath.Join(dataDir, d), 0o755); err != nil {
			return nil, err
		}
	}
	models, err := NewModelRegistry(filepath.Join(dataDir, "models"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		dataDir:    dataDir,
		models:     models,
		obs:        reg,
		jobs:       make(map[int64]*Job),
		byHash:     make(map[string]int64),
		cancels:    make(map[int64]context.CancelFunc),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	resume, err := m.loadJobs()
	if err != nil {
		cancel()
		return nil, err
	}
	// The queue holds every adopted job on top of Submit's queueCap, so
	// adoption never blocks before the workers start, however many
	// unfinished jobs the data directory holds.
	m.queue = make(chan int64, len(resume)+queueCap)
	for _, id := range resume {
		m.queue <- id
	}
	return m, nil
}

// start launches workers worker goroutines (min 1).
func (m *Manager) start(workers int) {
	for i := 0; i < max(workers, 1); i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// loadJobs reads jobs/*.json, rebuilds the in-memory table, and returns
// the IDs to re-enqueue (previously queued or running), ascending.
func (m *Manager) loadJobs() ([]int64, error) {
	entries, err := os.ReadDir(filepath.Join(m.dataDir, "jobs"))
	if err != nil {
		return nil, err
	}
	var resume []int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(m.dataDir, "jobs", e.Name()))
		if err != nil {
			return nil, err
		}
		var j Job
		if err := json.Unmarshal(b, &j); err != nil {
			return nil, fmt.Errorf("serve: job file %s: %w", e.Name(), err)
		}
		if j.State == StateQueued || j.State == StateRunning {
			if j.CancelRequested {
				// The previous daemon died between the cancel request and
				// the pipeline noticing; honor the cancel instead of
				// resurrecting the job.
				j.State = StateCancelled
				m.obs.Counter("serve.jobs.cancelled").Inc()
				if err := m.persistLocked(&j); err != nil {
					return nil, err
				}
			} else {
				// The previous daemon never finished this job; adopt it.
				j.State = StateQueued
				resume = append(resume, j.ID)
				m.obs.Counter("serve.jobs.adopted").Inc()
			}
		}
		if j.SpecHash == "" {
			// Jobs persisted before dedup existed; fingerprint them so
			// resubmissions of old specs dedup too.
			j.SpecHash = specHash(j.Spec)
		}
		m.jobs[j.ID] = &j
		// Later IDs win so byHash always points at the newest attempt —
		// but only states that absorb resubmissions occupy a slot; failed
		// and cancelled jobs retry fresh.
		if !j.CancelRequested {
			switch j.State {
			case StateQueued, StateRunning, StateDone:
				if prev, ok := m.byHash[j.SpecHash]; !ok || j.ID > prev {
					m.byHash[j.SpecHash] = j.ID
				}
			}
		}
		if j.ID >= m.nextID {
			m.nextID = j.ID + 1
		}
	}
	sort.Slice(resume, func(i, k int) bool { return resume[i] < resume[k] })
	if m.nextID == 0 {
		m.nextID = 1
	}
	return resume, nil
}

// Close stops accepting work, cancels running jobs, and waits for the
// workers to exit. In-flight collect rows already journaled survive; the
// jobs stay queued/running on disk and a new Manager re-adopts them.
func (m *Manager) Close() {
	m.rootCancel()
	m.wg.Wait()
}

// Submit validates, persists, and enqueues a job, returning its ID.
// Submitting a spec identical to a queued, running, or done job returns
// that job's ID with deduped=true instead of enqueueing a duplicate: the
// pipeline is deterministic in the spec, so the existing job's result is
// exactly what a rerun would produce. Failed and cancelled jobs don't
// absorb resubmissions — those are the retry path.
func (m *Manager) Submit(spec JobSpec) (int64, bool, error) {
	if err := m.validateSpec(spec); err != nil {
		return 0, false, err
	}
	hash := specHash(spec)
	m.mu.Lock()
	if prev, ok := m.byHash[hash]; ok {
		if j, live := m.jobs[prev]; live && !j.CancelRequested {
			switch j.State {
			case StateQueued, StateRunning, StateDone:
				j.Deduped++
				m.persistLocked(j)
				m.mu.Unlock()
				m.obs.Counter("serve.jobs.deduped").Inc()
				return prev, true, nil
			}
		}
	}
	id := m.nextID
	m.nextID++
	now := time.Now().Unix()
	j := &Job{ID: id, Spec: spec, State: StateQueued, SpecHash: hash, CreatedUnix: now, UpdatedUnix: now}
	m.jobs[id] = j
	m.byHash[hash] = id
	err := m.persistLocked(j)
	m.mu.Unlock()
	if err != nil {
		return 0, false, err
	}
	select {
	case m.queue <- id:
	default:
		m.transition(id, StateFailed, "job queue full", nil, StateQueued)
		return 0, false, fmt.Errorf("serve: job queue full")
	}
	m.obs.Counter("serve.jobs.submitted").Inc()
	return id, false, nil
}

func (m *Manager) validateSpec(spec JobSpec) error {
	switch spec.Type {
	case JobCollect, JobTrain, JobSearch, JobTune, JobTuneOnline:
	default:
		return fmt.Errorf("serve: unknown job type %q (collect|train|search|tune|tune_online)", spec.Type)
	}
	// Negative budgets and counts are always spec bugs: zero means
	// "default" everywhere, so reject negatives loudly instead of letting
	// them reach a pipeline stage that misreads them.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"size", spec.Size},
		{"ntrain", float64(spec.NTrain)},
		{"seed", float64(spec.Seed)},
		{"model_version", float64(spec.ModelVersion)},
		{"from_job", float64(spec.FromJob)},
		{"warm_version", float64(spec.WarmVersion)},
		{"extra_trees", float64(spec.ExtraTrees)},
		{"hm_trees", float64(spec.HMTrees)},
		{"ga_pop", float64(spec.GAPop)},
		{"ga_generations", float64(spec.GAGenerations)},
		{"parallelism", float64(spec.Parallelism)},
		{"screen_samples", float64(spec.ScreenSamples)},
		{"top_k", float64(spec.TopK)},
		{"iterations", float64(spec.Iterations)},
		{"iter_batch", float64(spec.IterBatch)},
	} {
		if f.v < 0 {
			return fmt.Errorf("serve: %s must not be negative (0 selects the default)", f.name)
		}
	}
	if spec.Type != JobTrain || spec.Workload != "" {
		if _, err := workloads.ByAbbr(strings.ToUpper(spec.Workload)); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if spec.Type == JobTuneOnline {
		switch spec.backend() {
		case "hm", "rf":
		default:
			return fmt.Errorf("serve: tune_online needs a backend that reports feature importance (hm|rf), not %q", spec.Backend)
		}
	}
	if spec.Type == JobTrain && spec.FromJob == 0 {
		return fmt.Errorf("serve: train jobs need from_job (a finished collect job)")
	}
	if spec.Type == JobSearch && spec.Model == "" && spec.Workload == "" {
		return fmt.Errorf("serve: search jobs need a model (or a workload to derive its name)")
	}
	if spec.Model != "" {
		if err := validName(spec.Model); err != nil {
			return err
		}
	}
	if spec.Backend != "" {
		b, err := m.models.Backends().Lookup(spec.Backend)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if spec.WarmFrom != "" {
			if _, ok := b.(model.Resumer); !ok {
				return fmt.Errorf("serve: backend %q does not support warm-start", spec.Backend)
			}
		}
	}
	if spec.Searcher != "" {
		if _, err := search.Default().Lookup(spec.Searcher); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}

// Get returns a copy of the job.
func (m *Manager) Get(id int64) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns copies of all jobs, ascending by ID.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Cancel stops a queued or running job. Queued jobs flip straight to
// cancelled; running jobs get their context cancelled and finish as
// cancelled once the pipeline notices (collect notices at the next
// checkpoint batch).
func (m *Manager) Cancel(id int64) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("serve: job %d not found", id)
	}
	switch j.State {
	case StateQueued:
		j.State = StateCancelled
		j.CancelRequested = true
		j.UpdatedUnix = time.Now().Unix()
		m.dropHashLocked(j)
		err := m.persistLocked(j)
		m.mu.Unlock()
		return err
	case StateRunning:
		// Mark the request and release the dedup slot immediately: from
		// this moment an identical spec submitted again must run fresh,
		// even though this job is still winding down.
		j.CancelRequested = true
		j.UpdatedUnix = time.Now().Unix()
		m.dropHashLocked(j)
		err := m.persistLocked(j)
		cancel := m.cancels[id]
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return err
	default:
		m.mu.Unlock()
		return fmt.Errorf("serve: job %d already %s", id, j.State)
	}
}

// Models exposes the registry (shared with the HTTP layer).
func (m *Manager) Models() *ModelRegistry { return m.models }

func (m *Manager) persistLocked(j *Job) error {
	path := filepath.Join(m.dataDir, "jobs", fmt.Sprintf("%d.json", j.ID))
	return atomicWrite(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(j)
	})
}

// transition moves a job to state iff its current state is one of from —
// a compare-and-set under the manager lock, persisted exactly once.
// Returning false means another path won the race (e.g. Cancel marked the
// job cancelled while its completion was being recorded) and nothing was
// written; terminal states are never overwritten by a late writer.
func (m *Manager) transition(id int64, state, errMsg string, result any, from ...string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return false
	}
	legal := false
	for _, f := range from {
		if j.State == f {
			legal = true
			break
		}
	}
	if !legal {
		return false
	}
	j.State = state
	j.Error = errMsg
	if result != nil {
		if b, err := json.Marshal(result); err == nil {
			j.Result = b
		}
	}
	j.UpdatedUnix = time.Now().Unix()
	if state == StateFailed || state == StateCancelled {
		m.dropHashLocked(j)
	}
	m.persistLocked(j)
	return true
}

// dropHashLocked removes the job's dedup entry if it still points at this
// job, so resubmissions of the same spec run fresh (the failed/cancelled
// retry contract). Caller holds m.mu.
func (m *Manager) dropHashLocked(j *Job) {
	if id, ok := m.byHash[j.SpecHash]; ok && id == j.ID {
		delete(m.byHash, j.SpecHash)
	}
}

func (m *Manager) setProgress(id int64, p Progress) {
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		j.Progress = p
	}
	m.mu.Unlock()
}

// worker pulls job IDs off the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.rootCtx.Done():
			return
		case id := <-m.queue:
			m.runJob(id)
		}
	}
}

// runJob executes one job end to end, with a per-job cancel layered on
// the manager's root context.
func (m *Manager) runJob(id int64) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || j.State != StateQueued {
		m.mu.Unlock()
		return // cancelled while queued, or stale
	}
	ctx, cancel := context.WithCancel(m.rootCtx)
	m.cancels[id] = cancel
	j.State = StateRunning
	j.UpdatedUnix = time.Now().Unix()
	m.persistLocked(j)
	spec := j.Spec
	m.mu.Unlock()
	defer func() {
		cancel()
		m.mu.Lock()
		delete(m.cancels, id)
		m.mu.Unlock()
	}()

	sp := m.obs.StartSpan("serve.job." + string(spec.Type))
	result, err := m.execute(ctx, id, spec)
	sp.End()

	// Every terminal write is a guarded transition out of StateRunning:
	// whichever of completion and cancellation records its state first
	// wins, and the loser's write is dropped instead of overwriting a
	// terminal state.
	switch {
	case err == nil:
		if m.transition(id, StateDone, "", result, StateRunning) {
			m.obs.Counter("serve.jobs.done").Inc()
		}
	case ctx.Err() != nil && m.rootCtx.Err() != nil:
		// Daemon shutdown, not a user cancel: leave the job running on
		// disk so the next daemon adopts and resumes it.
		m.obs.Counter("serve.jobs.interrupted").Inc()
	case ctx.Err() != nil:
		if m.transition(id, StateCancelled, err.Error(), nil, StateRunning) {
			m.obs.Counter("serve.jobs.cancelled").Inc()
		}
	default:
		if m.transition(id, StateFailed, err.Error(), nil, StateRunning) {
			m.obs.Counter("serve.jobs.failed").Inc()
		}
	}
}

// budgets resolves a spec's pipeline budgets from the shared presets
// (the CLI resolves the same ones): paper defaults, shrunk by Quick,
// overridden by explicit values.
func (spec JobSpec) budgets() (ntrain int, hmOpt hm.Options, gaOpt ga.Options) {
	b := experiments.PaperBudget()
	if spec.Quick {
		b = experiments.QuickBudget()
	}
	ntrain, hmOpt, gaOpt = b.NTrain, b.HM, b.GA
	if spec.NTrain > 0 {
		ntrain = spec.NTrain
	}
	if spec.HMTrees > 0 {
		hmOpt.Trees = spec.HMTrees
	}
	if spec.GAPop > 0 {
		gaOpt.PopSize = spec.GAPop
	}
	if spec.GAGenerations > 0 {
		gaOpt.Generations = spec.GAGenerations
	}
	return ntrain, hmOpt, gaOpt
}

func (spec JobSpec) seed() int64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	return 1
}

// backend resolves the spec's backend name, defaulting to hm.
func (spec JobSpec) backend() string {
	if spec.Backend == "" {
		return "hm"
	}
	return spec.Backend
}

// searcher resolves the spec's searcher name, defaulting to ga.
func (spec JobSpec) searcher() string {
	if spec.Searcher == "" {
		return "ga"
	}
	return spec.Searcher
}

// trainOpts maps the spec's budget knobs onto the per-job TrainOpts.
// HMTrees doubles as the generic tree-count override.
func (m *Manager) trainOpts(spec JobSpec) model.TrainOpts {
	return model.TrainOpts{
		Seed:  spec.seed(),
		Obs:   m.obs,
		Quick: spec.Quick,
		Trees: spec.HMTrees,
	}
}

// modelName is the registry entry a job writes or reads by default.
func (spec JobSpec) modelName(w *workloads.Workload) string {
	if spec.Model != "" {
		return spec.Model
	}
	return strings.ToLower(w.Abbr)
}

// tunerFor builds the job's tuner with the CLI's recipe —
// core.NewSimTuner, the shared budgets, and the registry's backend and
// searcher for every name, defaults included — so a job's output matches
// the equivalent `dac` invocation bit for bit.
func (m *Manager) tunerFor(w *workloads.Workload, spec JobSpec) *core.Tuner {
	ntrain, hmOpt, gaOpt := spec.budgets()
	opt := core.Options{
		NTrain:      ntrain,
		HM:          hmOpt,
		GA:          gaOpt,
		Parallelism: spec.Parallelism,
		Seed:        spec.seed(),
	}
	// Unknown names were rejected at Submit. The registry's hm carries
	// the HM budget above and its ga the GA budget, and every backend and
	// searcher shares the default's seed slots (Seed+1, Seed+2) and
	// training-set population seeds.
	if b, err := m.models.Backends().Lookup(spec.backend()); err == nil {
		opt.Backend = b
		opt.BackendTrain = model.TrainOpts{Quick: spec.Quick, Trees: spec.HMTrees}
	}
	if sr, err := search.Default().Lookup(spec.searcher()); err == nil {
		opt.Searcher = sr
	}
	return core.NewSimTuner(w, cluster.Standard(), opt, m.obs)
}

// execute dispatches one job to its pipeline slice. Every slice but
// train (which reads a finished collect's CSV) runs against the spec's
// workload and a tuner wired like the CLI's; both resolve once, here.
func (m *Manager) execute(ctx context.Context, id int64, spec JobSpec) (any, error) {
	if spec.Type == JobTrain {
		return m.runTrain(ctx, id, spec)
	}
	w, err := workloads.ByAbbr(strings.ToUpper(spec.Workload))
	if err != nil {
		return nil, err
	}
	t := m.tunerFor(w, spec)
	switch spec.Type {
	case JobCollect:
		return m.runCollect(ctx, id, t, w)
	case JobSearch:
		return m.runSearch(ctx, id, spec, t, w)
	case JobTune:
		return m.runTune(ctx, id, spec, t, w)
	case JobTuneOnline:
		return m.runTuneOnline(ctx, id, spec, t, w)
	}
	return nil, fmt.Errorf("serve: unknown job type %q", spec.Type)
}

// jobJournal opens job id's row journal for the row sequence meta
// identifies, and builds the row hooks that journal through it: known
// rows replay from the journal, and each fresh batch appends (and
// fsyncs) before it counts as done — a failed append stops the sweep.
// Progress lands on the job. kind names the counters:
// serve.<kind>.resumed.rows counts the rows the journal already held,
// serve.<kind>.checkpoints each appended batch. Collect, tune_online,
// and the fleet merge all journal through these hooks.
func (m *Manager) jobJournal(id int64, meta, kind string) (*journal.Journal, core.RowHooks, error) {
	jl, err := journal.Open(filepath.Join(m.dataDir, "journals", fmt.Sprintf("job-%d.journal", id)), meta)
	if err != nil {
		return nil, core.RowHooks{}, err
	}
	if n := jl.Rows(); n > 0 {
		m.obs.Counter("serve." + kind + ".resumed.rows").Add(int64(n))
	}
	checkpoints := m.obs.Counter("serve." + kind + ".checkpoints")
	return jl, core.RowHooks{
		Known: jl.Known,
		OnBatch: func(rows []core.RowTime) error {
			if err := jl.Append(rows); err != nil {
				return fmt.Errorf("serve: journal append: %w", err)
			}
			checkpoints.Inc()
			if m.testBatchHook != nil {
				m.testBatchHook(jl.Rows())
			}
			return nil
		},
		Progress: func(phase string, done, total int) {
			m.setProgress(id, Progress{Phase: phase, Done: done, Total: total})
		},
	}, nil
}

// collectDurable runs the journal-backed collect sweep for a job and
// returns the finished set.
func (m *Manager) collectDurable(ctx context.Context, id int64, t *core.Tuner, w *workloads.Workload) (*dataset.Set, core.Overhead, error) {
	sizes := t.TrainingSizesMB(w.TrainingRangeMB())
	jl, hooks, err := m.jobJournal(id, journal.MetaHash(w.Abbr, t.Opt.Seed, t.Opt.NTrain, sizes), "collect")
	if err != nil {
		return nil, core.Overhead{}, err
	}
	defer jl.Close()
	// Dispatch: a coordinator with live workers shards the sweep across
	// the fleet; otherwise the local worker pool runs it. Both paths
	// journal into jl and produce byte-identical sets (DESIGN.md §15).
	if m.fleet != nil && m.fleet.LiveWorkers() > 0 {
		return m.collectFleet(ctx, id, t, w, sizes, jl, hooks)
	}
	return t.CollectResumable(ctx, sizes, hooks)
}

// registerModel saves a job's model under the spec's registry name with
// its provenance, so later search jobs (and warm starts) reuse it without
// paying the collect again, and returns the entry. A backend without the
// Saver capability skips registration and returns version 0.
func (m *Manager) registerModel(id int64, spec JobSpec, w *workloads.Workload, mdl model.Model, ntrain int, warmFrom string) (name string, version int, err error) {
	b, _ := m.models.Backends().Lookup(spec.backend()) // unknown names were rejected at Submit
	if _, ok := b.(model.Saver); !ok {
		return "", 0, nil
	}
	name = spec.modelName(w)
	version, err = m.models.Save(name, mdl, ModelMeta{
		Backend:     spec.backend(),
		Workload:    w.Abbr,
		Seed:        spec.seed(),
		NTrain:      ntrain,
		Job:         id,
		WarmFrom:    warmFrom,
		CreatedUnix: time.Now().Unix(),
	})
	if err != nil {
		return "", 0, err
	}
	m.obs.Counter("serve.models.saved").Inc()
	return name, version, nil
}

func (m *Manager) collectCSVPath(id int64) string {
	return filepath.Join(m.dataDir, "collect", fmt.Sprintf("job-%d.csv", id))
}

func (m *Manager) runCollect(ctx context.Context, id int64, t *core.Tuner, w *workloads.Workload) (any, error) {
	set, ov, err := m.collectDurable(ctx, id, t, w)
	if err != nil {
		return nil, err
	}
	csvPath := m.collectCSVPath(id)
	if err := atomicWrite(csvPath, func(f *os.File) error { return set.WriteCSV(f) }); err != nil {
		return nil, err
	}
	return map[string]any{
		"rows":          set.Len(),
		"cluster_hours": ov.CollectClusterHours,
		"csv":           csvPath,
	}, nil
}

func (m *Manager) runTrain(ctx context.Context, id int64, spec JobSpec) (any, error) {
	src, ok := m.Get(spec.FromJob)
	if !ok {
		return nil, fmt.Errorf("serve: from_job %d not found", spec.FromJob)
	}
	if src.State != StateDone || src.Spec.Type != JobCollect {
		return nil, fmt.Errorf("serve: from_job %d is not a finished collect job", spec.FromJob)
	}
	w, err := workloads.ByAbbr(strings.ToUpper(src.Spec.Workload))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(m.collectCSVPath(spec.FromJob))
	if err != nil {
		return nil, err
	}
	set, err := dataset.ReadCSV(f, conf.StandardSpace())
	f.Close()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.setProgress(id, Progress{Phase: "train"})

	backendName := spec.backend()
	b, err := m.models.Backends().Lookup(backendName)
	if err != nil {
		return nil, err
	}
	trainOpt := m.trainOpts(spec)
	var mdl model.Model
	warmFrom := ""
	if spec.WarmFrom != "" {
		// Warm start: continue a registered model's training trajectory
		// (for hm, its boosting and, if it still misses the accuracy
		// target, its hierarchical recursion) instead of refitting from
		// scratch. Only backends with the Resumer capability offer this.
		resumer, ok := b.(model.Resumer)
		if !ok {
			return nil, fmt.Errorf("serve: backend %q does not support warm-start", backendName)
		}
		base, baseMeta, err := m.models.Load(spec.WarmFrom, spec.WarmVersion)
		if err != nil {
			return nil, err
		}
		if got := baseMeta.backendName(); got != backendName {
			return nil, fmt.Errorf("serve: warm-start source %s@v%d is a %s model, not %s",
				baseMeta.Name, baseMeta.Version, got, backendName)
		}
		extra := spec.ExtraTrees
		if extra <= 0 {
			extra = 400
		}
		if err := resumer.Resume(base, set.ToDataset(), trainOpt, extra); err != nil {
			return nil, err
		}
		mdl = base
		warmFrom = fmt.Sprintf("%s@v%d", baseMeta.Name, baseMeta.Version)
		m.obs.Counter("serve.models.warmstarts").Inc()
	} else {
		mdl, err = b.Train(set.ToDataset(), trainOpt)
		if err != nil {
			return nil, err
		}
	}
	name, version, err := m.registerModel(id, spec, w, mdl, set.Len(), warmFrom)
	if err != nil {
		return nil, err
	}
	if version == 0 {
		return nil, fmt.Errorf("serve: backend %q cannot save models", backendName)
	}
	out := map[string]any{
		"model":   name,
		"version": version,
		"backend": backendName,
	}
	if tm, ok := mdl.(interface{ NumTrees() int }); ok {
		out["trees"] = tm.NumTrees()
	}
	if hmModel, ok := mdl.(*hm.Model); ok {
		out["order"] = hmModel.Order
		out["val_err"] = hmModel.ValErr
	}
	return out, nil
}

func (m *Manager) runSearch(ctx context.Context, id int64, spec JobSpec, t *core.Tuner, w *workloads.Workload) (any, error) {
	mdl, meta, err := m.models.Load(spec.modelName(w), spec.ModelVersion)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	targetMB := w.TargetMB(spec.Size)
	m.setProgress(id, Progress{Phase: "search"})
	cfg, pred, gaRes, _, err := t.Search(mdl, targetMB, nil)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"model":          meta.Name,
		"model_version":  meta.Version,
		"target_mb":      targetMB,
		"best":           configMap(cfg),
		"vector":         cfg.Vector(),
		"predicted_sec":  pred,
		"ga_evaluations": gaRes.Evaluations,
		"ga_cache_hits":  gaRes.CacheHits,
		"ga_converged":   gaRes.Converged,
	}, nil
}

func (m *Manager) runTune(ctx context.Context, id int64, spec JobSpec, t *core.Tuner, w *workloads.Workload) (any, error) {
	set, ovC, err := m.collectDurable(ctx, id, t, w)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	targetMB := w.TargetMB(spec.Size)
	res, err := t.TuneCollected(set, ovC, []float64{targetMB}, func(phase string, done, total int) {
		m.setProgress(id, Progress{Phase: phase, Done: done, Total: total})
	})
	if err != nil {
		return nil, err
	}

	out := map[string]any{
		"workload":      w.Abbr,
		"target_mb":     targetMB,
		"best":          configMap(res.Best[targetMB]),
		"vector":        res.Best[targetMB].Vector(),
		"predicted_sec": res.PredictedSec[targetMB],
		"cluster_hours": res.Overhead.CollectClusterHours,
	}
	name, version, err := m.registerModel(id, spec, w, res.Model, set.Len(), "")
	if err != nil {
		return nil, err
	}
	if version > 0 {
		out["model"], out["model_version"], out["backend"] = name, version, spec.backend()
	}
	return out, nil
}

// onlineOptions resolves the spec's online loop budgets: core defaults,
// shrunk by Quick, overridden by explicit values — the same precedence
// the offline budgets use.
func (spec JobSpec) onlineOptions() core.OnlineOptions {
	var oo core.OnlineOptions
	if spec.Quick {
		oo = core.OnlineOptions{ScreenSamples: 60, TopK: 8, Iterations: 2, IterBatch: 8, ExtraTrees: 60}
	}
	if spec.ScreenSamples > 0 {
		oo.ScreenSamples = spec.ScreenSamples
	}
	if spec.TopK > 0 {
		oo.TopK = spec.TopK
	}
	if spec.Iterations > 0 {
		oo.Iterations = spec.Iterations
	}
	if spec.IterBatch > 0 {
		oo.IterBatch = spec.IterBatch
	}
	if spec.ExtraTrees > 0 {
		oo.ExtraTrees = spec.ExtraTrees
	}
	return oo
}

// runTuneOnline executes the online importance-screened loop with the
// sparksim-backed OOM guard, journaling every measured run: the
// trajectory is a pure function of the spec, so a restarted daemon
// replays journaled rows and lands on the identical final configuration.
func (m *Manager) runTuneOnline(ctx context.Context, id int64, spec JobSpec, t *core.Tuner, w *workloads.Workload) (any, error) {
	oo := spec.onlineOptions()
	oo.Guard = core.SimOOMGuard(cluster.Standard(), &w.Program, 0)
	targetMB := w.TargetMB(spec.Size)
	lo, hi := w.TrainingRangeMB()
	sizes := t.TrainingSizesMB(lo, hi)

	// The journal header binds the file to the whole online trajectory:
	// any budget change makes a different trajectory, so encode the
	// online knobs (and target) into the meta string alongside the
	// collect-style identity.
	onlineID := fmt.Sprintf("online:%s:%d:%d:%d:%d:%s", w.Abbr,
		oo.ScreenSamples, oo.TopK, oo.Iterations, oo.IterBatch,
		strconv.FormatFloat(targetMB, 'g', -1, 64))
	jl, hooks, err := m.jobJournal(id, journal.MetaHash(onlineID, t.Opt.Seed, oo.ScreenSamples+oo.Iterations*oo.IterBatch+1, sizes), "online")
	if err != nil {
		return nil, err
	}
	defer jl.Close()
	res, err := t.TuneOnline(ctx, lo, hi, targetMB, oo, hooks)
	if err != nil {
		return nil, err
	}

	iters := make([]map[string]any, len(res.Iterations))
	for i, it := range res.Iterations {
		iters[i] = map[string]any{
			"runs":              it.Runs,
			"warm_started":      it.WarmStarted,
			"predicted_sec":     it.PredictedSec,
			"best_measured_sec": it.BestMeasuredSec,
			"guard_rejected":    it.GuardRejected,
		}
	}
	out := map[string]any{
		"workload":         w.Abbr,
		"target_mb":        targetMB,
		"best":             configMap(res.Best),
		"vector":           res.Best.Vector(),
		"measured_sec":     res.MeasuredSec,
		"predicted_sec":    res.PredictedSec,
		"screened":         res.Screened,
		"importance":       res.Importance,
		"total_runs":       res.TotalRuns,
		"guard_rejections": res.GuardRejections,
		"iterations":       iters,
		"cluster_hours":    res.Overhead.CollectClusterHours,
	}
	// Register the final refit model like tune does, so search jobs and
	// warm starts can pick up where the online loop left off.
	name, version, err := m.registerModel(id, spec, w, res.Model, res.Set.Len(), "")
	if err != nil {
		return nil, err
	}
	if version > 0 {
		out["model"], out["model_version"], out["backend"] = name, version, spec.backend()
	}
	return out, nil
}

// configMap renders a configuration as {param: value} for JSON clients.
func configMap(cfg conf.Config) map[string]float64 {
	space := cfg.Space()
	out := make(map[string]float64, space.Len())
	for i, name := range space.Names() {
		out[name] = cfg.At(i)
	}
	return out
}
