package fleet

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Options configure the coordinator. The zero value takes the defaults
// noted on each field.
type Options struct {
	// LeaseTTL is how long a granted chunk stays owned past the owner's
	// last heartbeat before it expires and requeues; it doubles as the
	// worker-liveness horizon (default 10s).
	LeaseTTL time.Duration
	// ChunkRows bounds the rows per leased chunk — the fleet's unit of
	// loss when a worker dies (default 64, matching the local
	// checkpoint-batch granularity).
	ChunkRows int
	// RetryWait is the wait the coordinator suggests to an idle worker
	// whose lease request found no pending chunk (default 250ms).
	RetryWait time.Duration
	// Obs receives the fleet counters; nil runs without metrics.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.ChunkRows <= 0 {
		o.ChunkRows = 64
	}
	if o.RetryWait <= 0 {
		o.RetryWait = 250 * time.Millisecond
	}
	return o
}

// SweepHooks customize one RunSweep call; the coordinator calls them
// outside its own lock.
type SweepHooks struct {
	// Known reports a row's already-journaled time — resumed rows are
	// never re-dispatched, exactly like the local collector.
	Known func(index int) (timeSec float64, ok bool)
	// OnRows observes each merged chunk's rows, index-ascending within
	// the chunk — the journal append. Rows carry only Index and TimeSec
	// (the configuration is reproducible from the spec). An error fails
	// the sweep. Called from handler goroutines concurrently;
	// implementations must synchronize (the journal does).
	OnRows func(rows []core.RowTime) error
	// Progress receives the cumulative completed row count (known rows
	// included) after every merged chunk, and once up front.
	Progress func(done, total int)
	// RunLocal executes a chunk on the coordinator's own executor — the
	// degraded path taken only while no live workers exist, so a sweep
	// whose whole fleet died still finishes. Nil disables the fallback.
	RunLocal func(ctx context.Context, indices []int) ([]core.RowTime, error)
}

// chunk lease states.
const (
	chunkPending = iota
	chunkLeased
	chunkDone
)

type chunkState struct {
	id      int
	indices []int
	state   int
	worker  string // lease owner ("" when pending; localWorker for the fallback)
	epoch   int64  // owner's registration epoch at grant time
	expiry  time.Time
}

// localWorker owns fallback leases; it never expires (the executing
// goroutine lives or dies with the sweep itself).
const localWorker = "(local)"

type sweepState struct {
	id         int64
	spec       SweepSpec
	hooks      SweepHooks
	chunks     []*chunkState
	pending    []int // chunk IDs awaiting a lease, FIFO
	remaining  int   // chunks whose rows have not finished merging (OnRows included)
	knownRows  int
	mergedRows int
	totalRows  int
	closed     bool // no further hook may start (completed, failed, or abandoned)
	err        error
	done       chan struct{}
	// hookWG counts in-flight finishRows hook windows; removeSweep waits
	// on it so no OnRows/Progress call survives past RunSweep's return.
	hookWG sync.WaitGroup
}

type workerState struct {
	id       string
	epoch    int64
	lastBeat time.Time
	lost     bool
}

// Coordinator is the fleet control plane: the worker registry, the lease
// state machine, and the per-sweep chunk queues. One coordinator serves
// any number of concurrent sweeps; workers lease from whichever sweep
// has pending chunks, oldest sweep first.
type Coordinator struct {
	opt Options

	mu         sync.Mutex
	workers    map[string]*workerState
	sweeps     map[int64]*sweepState
	sweepOrder []int64
	nextAnon   int64

	registered, lost              *obs.Counter
	granted, expired, requeued    *obs.Counter
	merged, rejected, localChunks *obs.Counter
}

// NewCoordinator returns a coordinator with no workers and no sweeps.
func NewCoordinator(opt Options) *Coordinator {
	opt = opt.withDefaults()
	reg := opt.Obs
	return &Coordinator{
		opt:         opt,
		workers:     make(map[string]*workerState),
		sweeps:      make(map[int64]*sweepState),
		registered:  reg.Counter("fleet.workers.registered"),
		lost:        reg.Counter("fleet.workers.lost"),
		granted:     reg.Counter("fleet.leases.granted"),
		expired:     reg.Counter("fleet.leases.expired"),
		requeued:    reg.Counter("fleet.leases.requeued"),
		merged:      reg.Counter("fleet.rows.merged"),
		rejected:    reg.Counter("fleet.results.rejected"),
		localChunks: reg.Counter("fleet.chunks.local"),
	}
}

// LiveWorkers reports how many registered workers heartbeated within the
// lease TTL — the daemon's dispatch predicate: sweeps shard to the fleet
// only when someone is there to execute them.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(time.Now())
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastBeat) <= c.opt.LeaseTTL {
			n++
		}
	}
	return n
}

// reapLocked advances the state machine's clock: leases whose owner
// stopped heartbeating expire and requeue, and silent workers flip to
// lost. Called at the top of every mutating handler and from RunSweep's
// ticker, so expiry needs no background goroutine of its own.
func (c *Coordinator) reapLocked(now time.Time) {
	for _, w := range c.workers {
		if !w.lost && now.Sub(w.lastBeat) > c.opt.LeaseTTL {
			w.lost = true
			c.lost.Inc()
		}
	}
	for _, id := range c.sweepOrder {
		sw := c.sweeps[id]
		for _, ch := range sw.chunks {
			if ch.state == chunkLeased && ch.worker != localWorker && now.After(ch.expiry) {
				ch.state = chunkPending
				ch.worker = ""
				sw.pending = append(sw.pending, ch.id)
				c.expired.Inc()
				c.requeued.Inc()
			}
		}
	}
}

// register adds (or re-registers) a worker. Re-registering an existing
// name bumps its epoch — the fence that rejects the old process's late
// results — and requeues any chunks the old epoch still held.
func (c *Coordinator) register(name string) (RegisterResponse, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	if name == "" {
		// Skip generated names an operator already claimed explicitly —
		// colliding would bump that worker's epoch and fence it out.
		for {
			c.nextAnon++
			name = fmt.Sprintf("w%d", c.nextAnon)
			if _, taken := c.workers[name]; !taken {
				break
			}
		}
	}
	if err := validWorkerName(name); err != nil {
		return RegisterResponse{}, err
	}
	w, ok := c.workers[name]
	if !ok {
		w = &workerState{id: name}
		c.workers[name] = w
	}
	w.epoch++
	w.lastBeat = now
	w.lost = false
	c.requeueWorkerLocked(name)
	c.registered.Inc()
	return RegisterResponse{
		ID:          name,
		Epoch:       w.epoch,
		HeartbeatMS: (c.opt.LeaseTTL / 4).Milliseconds(),
		LeaseTTLMS:  c.opt.LeaseTTL.Milliseconds(),
	}, nil
}

// requeueWorkerLocked returns every chunk leased to name to its sweep's
// pending queue (register-time revocation of a previous epoch's leases).
func (c *Coordinator) requeueWorkerLocked(name string) {
	for _, id := range c.sweepOrder {
		sw := c.sweeps[id]
		for _, ch := range sw.chunks {
			if ch.state == chunkLeased && ch.worker == name {
				ch.state = chunkPending
				ch.worker = ""
				sw.pending = append(sw.pending, ch.id)
				c.requeued.Inc()
			}
		}
	}
}

func validWorkerName(name string) error {
	if len(name) > 64 {
		return fmt.Errorf("fleet: worker name longer than 64 bytes")
	}
	for _, r := range name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.') {
			return fmt.Errorf("fleet: worker name %q: use letters, digits, '-', '_', '.'", name)
		}
	}
	return nil
}

// protocol errors mapped to HTTP statuses by the handlers.
var (
	errUnknownWorker = fmt.Errorf("fleet: unknown worker (register first)")
	errStaleEpoch    = fmt.Errorf("fleet: stale epoch (a newer registration superseded this worker)")
)

// checkWorkerLocked validates a worker's identity and epoch and counts
// the request as a liveness signal.
func (c *Coordinator) checkWorkerLocked(id string, epoch int64, now time.Time) (*workerState, error) {
	w, ok := c.workers[id]
	if !ok {
		return nil, errUnknownWorker
	}
	if epoch != w.epoch {
		return nil, errStaleEpoch
	}
	w.lastBeat = now
	w.lost = false
	return w, nil
}

// heartbeat renews a worker's liveness and extends every lease its
// current epoch holds.
func (c *Coordinator) heartbeat(id string, epoch int64) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	if _, err := c.checkWorkerLocked(id, epoch, now); err != nil {
		return err
	}
	for _, sid := range c.sweepOrder {
		for _, ch := range c.sweeps[sid].chunks {
			if ch.state == chunkLeased && ch.worker == id && ch.epoch == epoch {
				ch.expiry = now.Add(c.opt.LeaseTTL)
			}
		}
	}
	return nil
}

// lease grants the oldest sweep's next pending chunk to the worker, or
// tells it when to ask again.
func (c *Coordinator) lease(id string, epoch int64) (LeaseResponse, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	if _, err := c.checkWorkerLocked(id, epoch, now); err != nil {
		return LeaseResponse{}, err
	}
	for _, sid := range c.sweepOrder {
		sw := c.sweeps[sid]
		if sw.closed || len(sw.pending) == 0 {
			continue
		}
		ch := sw.chunks[sw.pending[0]]
		sw.pending = sw.pending[1:]
		ch.state = chunkLeased
		ch.worker = id
		ch.epoch = epoch
		ch.expiry = now.Add(c.opt.LeaseTTL)
		c.granted.Inc()
		return LeaseResponse{
			Lease:   true,
			Sweep:   sw.id,
			Chunk:   ch.id,
			Indices: ch.indices,
			Spec:    sw.spec,
		}, nil
	}
	return LeaseResponse{Lease: false, RetryMS: c.opt.RetryWait.Milliseconds()}, nil
}

// results merges a completed chunk's rows, after running the full fence:
// the worker must still be the epoch that leased the chunk, and the
// lease must not have expired and requeued (or completed) elsewhere. A
// rejection is terminal for these rows — whatever superseded the lease
// owns the chunk now.
func (c *Coordinator) results(id string, req resultsRequest) (resultsResponse, error) {
	now := time.Now()
	c.mu.Lock()
	c.reapLocked(now)
	if _, err := c.checkWorkerLocked(id, req.Epoch, now); err != nil {
		c.mu.Unlock()
		c.rejected.Inc()
		return resultsResponse{Accepted: false, Reason: err.Error()}, err
	}
	sw, ok := c.sweeps[req.Sweep]
	if !ok || sw.closed {
		c.mu.Unlock()
		c.rejected.Inc()
		return resultsResponse{Accepted: false, Reason: "unknown sweep (finished or abandoned)"}, nil
	}
	if req.Chunk < 0 || req.Chunk >= len(sw.chunks) {
		c.mu.Unlock()
		c.rejected.Inc()
		return resultsResponse{Accepted: false, Reason: "unknown chunk"}, nil
	}
	ch := sw.chunks[req.Chunk]
	if ch.state != chunkLeased || ch.worker != id || ch.epoch != req.Epoch {
		c.mu.Unlock()
		c.rejected.Inc()
		return resultsResponse{Accepted: false, Reason: "lease not held (expired, requeued, or completed elsewhere)"}, nil
	}
	rows, err := chunkRows(ch, req.Rows)
	if err != nil {
		// Malformed rows are the worker's bug, not a fence event: requeue
		// the chunk so a correct worker (or the local fallback) redoes it.
		ch.state = chunkPending
		ch.worker = ""
		sw.pending = append(sw.pending, ch.id)
		c.requeued.Inc()
		c.mu.Unlock()
		c.rejected.Inc()
		return resultsResponse{Accepted: false, Reason: err.Error()}, nil
	}
	c.completeChunkLocked(sw, ch)
	c.mu.Unlock()
	c.finishRows(sw, rows)
	return resultsResponse{Accepted: true}, nil
}

// chunkRows validates a results payload against its chunk: exactly the
// leased indices, in order, with finite positive times.
func chunkRows(ch *chunkState, in []ResultRow) ([]core.RowTime, error) {
	if len(in) != len(ch.indices) {
		return nil, fmt.Errorf("fleet: chunk %d wants %d rows, got %d", ch.id, len(ch.indices), len(in))
	}
	rows := make([]core.RowTime, len(in))
	for i, r := range in {
		if r.Index != ch.indices[i] {
			return nil, fmt.Errorf("fleet: chunk %d row %d: index %d, want %d", ch.id, i, r.Index, ch.indices[i])
		}
		if r.TimeSec <= 0 || math.IsNaN(r.TimeSec) || math.IsInf(r.TimeSec, 0) {
			return nil, fmt.Errorf("fleet: chunk %d row %d returned time %v", ch.id, r.Index, r.TimeSec)
		}
		rows[i] = core.RowTime{Index: r.Index, TimeSec: r.TimeSec}
	}
	return rows, nil
}

// completeChunkLocked transitions a leased chunk to done so the reaper
// can no longer requeue it; the sweep's row accounting waits for
// finishRows, after the rows actually merge. Caller holds c.mu.
func (c *Coordinator) completeChunkLocked(sw *sweepState, ch *chunkState) {
	ch.state = chunkDone
}

// finishRows runs the sweep hooks for a completed chunk outside the
// coordinator lock (the journal append fsyncs) and closes the sweep when
// its last chunk lands. The chunk only counts as done — and the sweep
// only completes — after its OnRows append succeeded, so RunSweep can
// never return success while a journal write is still in flight. The
// whole hook window registers with sw.hookWG so removeSweep can wait out
// stragglers before RunSweep returns.
func (c *Coordinator) finishRows(sw *sweepState, rows []core.RowTime) {
	c.mu.Lock()
	if sw.closed {
		// Failed or abandoned: the journal may already be closed, so no
		// hook may start. The rows re-run on resume.
		c.mu.Unlock()
		return
	}
	sw.hookWG.Add(1)
	c.mu.Unlock()
	defer sw.hookWG.Done()

	if sw.hooks.OnRows != nil {
		if err := sw.hooks.OnRows(rows); err != nil {
			c.failSweep(sw, fmt.Errorf("fleet: merging rows: %w", err))
			return
		}
	}
	c.mu.Lock()
	if sw.closed {
		// The sweep failed (or was abandoned) while this append ran;
		// nothing left to report.
		c.mu.Unlock()
		return
	}
	sw.remaining--
	sw.mergedRows += len(rows)
	done := sw.knownRows + sw.mergedRows
	last := sw.remaining == 0
	if last {
		sw.closed = true
	}
	c.mu.Unlock()
	c.merged.Add(int64(len(rows)))
	if sw.hooks.Progress != nil {
		sw.hooks.Progress(done, sw.totalRows)
	}
	if last {
		close(sw.done)
	}
}

func (c *Coordinator) failSweep(sw *sweepState, err error) {
	c.mu.Lock()
	if sw.closed {
		c.mu.Unlock()
		return
	}
	sw.closed = true
	sw.err = err
	c.mu.Unlock()
	close(sw.done)
}

// RunSweep shards the sweep's not-yet-known rows into chunks, serves
// them to whatever workers lease them, and returns once every row has
// merged (nil) or the sweep failed. Rows land through hooks.OnRows; the
// caller owns the journal and builds the dataset afterwards. Cancelling
// ctx abandons the sweep: merged rows are already journaled, so a
// restarted job resumes exactly like the local collector.
func (c *Coordinator) RunSweep(ctx context.Context, id int64, spec SweepSpec, hooks SweepHooks) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	known := 0
	var pending []int
	for i := 0; i < spec.NTrain; i++ {
		if hooks.Known != nil {
			if _, ok := hooks.Known(i); ok {
				known++
				continue
			}
		}
		pending = append(pending, i)
	}
	if hooks.Progress != nil {
		hooks.Progress(known, spec.NTrain)
	}
	if len(pending) == 0 {
		return nil
	}

	sw := &sweepState{
		id:        id,
		spec:      spec,
		hooks:     hooks,
		knownRows: known,
		totalRows: spec.NTrain,
		done:      make(chan struct{}),
	}
	for lo := 0; lo < len(pending); lo += c.opt.ChunkRows {
		hi := lo + c.opt.ChunkRows
		if hi > len(pending) {
			hi = len(pending)
		}
		ch := &chunkState{id: len(sw.chunks), indices: pending[lo:hi]}
		sw.chunks = append(sw.chunks, ch)
		sw.pending = append(sw.pending, ch.id)
	}
	sw.remaining = len(sw.chunks)

	c.mu.Lock()
	if _, dup := c.sweeps[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("fleet: sweep %d already running", id)
	}
	c.sweeps[id] = sw
	c.sweepOrder = append(c.sweepOrder, id)
	sort.Slice(c.sweepOrder, func(i, k int) bool { return c.sweepOrder[i] < c.sweepOrder[k] })
	c.mu.Unlock()
	defer c.removeSweep(id)

	// The ticker drives lease expiry when no HTTP traffic does, and the
	// no-live-workers local fallback.
	tick := c.opt.LeaseTTL / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: sweep %d interrupted: %w", id, ctx.Err())
		case <-sw.done:
			c.mu.Lock()
			err := sw.err
			c.mu.Unlock()
			return err
		case <-ticker.C:
			c.mu.Lock()
			c.reapLocked(time.Now())
			c.mu.Unlock()
			c.runLocalFallback(ctx, sw)
		}
	}
}

// runLocalFallback executes pending chunks on the coordinator's own
// executor while no live workers exist — the whole fleet died mid-sweep
// and nobody is left to lease the requeued chunks. One chunk at a time;
// a worker registering mid-fallback takes the queue back at the next
// iteration.
func (c *Coordinator) runLocalFallback(ctx context.Context, sw *sweepState) {
	if sw.hooks.RunLocal == nil {
		return
	}
	for ctx.Err() == nil {
		now := time.Now()
		c.mu.Lock()
		c.reapLocked(now)
		if sw.closed || len(sw.pending) == 0 || c.liveWorkersLocked(now) > 0 {
			c.mu.Unlock()
			return
		}
		ch := sw.chunks[sw.pending[0]]
		sw.pending = sw.pending[1:]
		ch.state = chunkLeased
		ch.worker = localWorker
		c.mu.Unlock()

		rows, err := sw.hooks.RunLocal(ctx, ch.indices)
		if err != nil {
			if ctx.Err() != nil {
				// Interrupted, not failed: requeue so a resumed sweep (or a
				// late worker) picks the chunk up.
				c.mu.Lock()
				ch.state = chunkPending
				ch.worker = ""
				sw.pending = append(sw.pending, ch.id)
				c.mu.Unlock()
				return
			}
			c.failSweep(sw, err)
			return
		}
		c.mu.Lock()
		c.completeChunkLocked(sw, ch)
		c.mu.Unlock()
		c.localChunks.Inc()
		c.finishRows(sw, rows)
	}
}

// removeSweep retires a sweep as RunSweep returns: it closes the sweep
// so no new hook window can open (a results handler that already looked
// the sweep up before the delete must not append to a journal the caller
// is about to close), then waits out any hook still in flight.
func (c *Coordinator) removeSweep(id int64) {
	c.mu.Lock()
	sw := c.sweeps[id]
	delete(c.sweeps, id)
	for i, sid := range c.sweepOrder {
		if sid == id {
			c.sweepOrder = append(c.sweepOrder[:i], c.sweepOrder[i+1:]...)
			break
		}
	}
	if sw != nil {
		sw.closed = true
	}
	c.mu.Unlock()
	if sw != nil {
		sw.hookWG.Wait()
	}
}

// WorkerInfo is one registry entry as reported by GET /workers.
type WorkerInfo struct {
	ID       string `json:"id"`
	Epoch    int64  `json:"epoch"`
	Live     bool   `json:"live"`
	Leases   int    `json:"leases"`
	LastBeat int64  `json:"last_beat_unix"`
}

// Workers lists the registry, sorted by id.
func (c *Coordinator) Workers() []WorkerInfo {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		leases := 0
		for _, sid := range c.sweepOrder {
			for _, ch := range c.sweeps[sid].chunks {
				if ch.state == chunkLeased && ch.worker == w.id {
					leases++
				}
			}
		}
		out = append(out, WorkerInfo{
			ID:       w.id,
			Epoch:    w.epoch,
			Live:     !w.lost,
			Leases:   leases,
			LastBeat: w.lastBeat.Unix(),
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
