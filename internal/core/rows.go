package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/conf"
	"repro/internal/dataset"
)

// RowTime is one completed collecting row: the job's index in the sweep
// order, the job itself, and its measured execution time. The index is
// the durable identity of the row — the sweep's job list is a pure
// function of (Space, Options, sizes), so a journaled (index, time) pair
// is enough to skip the row on resume.
type RowTime struct {
	Index   int
	Job     Job
	TimeSec float64
}

// RowHooks are the row engine's durability and progress seams, shared by
// CollectResumable and TuneOnline. The zero value runs a plain,
// non-durable sweep. Row indices are global across the caller's whole row
// sequence — a collect's CollectJobs order, or TuneOnline's screening rows,
// then each iteration's candidates, then the confirming run — a pure
// function of the tuner's options, which is what makes journaled
// (index, time) pairs sufficient to resume.
type RowHooks struct {
	// Known reports a row's already-measured execution time — fed from a
	// journal on resume. Rows with a known time are not re-executed; their
	// time lands in the result as-is.
	Known func(index int) (timeSec float64, ok bool)
	// OnBatch observes each scheduled batch's freshly executed rows,
	// index-ascending within the batch — the journal append + checkpoint
	// hook. An error stops the sweep: no further batch starts, and the
	// call returns the error wrapped. Called from worker goroutines
	// concurrently; implementations must synchronize.
	OnBatch func(rows []RowTime) error
	// Progress receives (phase, done, total) after every batch, and once
	// up front for the known rows: done counts the phase's completed rows,
	// known rows included. A collect reports phase "collect"; TuneOnline's
	// phases are documented on TuneOnline. Called from worker goroutines
	// concurrently.
	Progress func(phase string, done, total int)
	// BatchRows bounds the rows per scheduled batch of a collect — its
	// checkpoint and cancellation granularity (default 64). TuneOnline
	// ignores it and always checkpoints every 32 rows. Batched executors
	// amortize per-run setup across one ExecuteBatch call per batch;
	// results are byte-identical for any value.
	BatchRows int
}

// defaultBatchRows is a collect's checkpoint granularity when hooks don't
// choose: small enough that a killed daemon loses at most one batch of
// sweep work, large enough to keep ExecuteBatch's amortization.
const defaultBatchRows = 64

// CollectJobs returns the sweep's job list for the given sizes — the
// (configuration, datasize) pairs Collect and CollectResumable execute,
// in row order. The list is a pure function of (Space, Opt.Seed,
// Opt.NTrain, Opt.Sampler, sizesMB); durable collect journals rely on
// this to identify rows across daemon restarts by index alone.
func (t *Tuner) CollectJobs(sizesMB []float64) []Job {
	opt := t.Opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	sampler := opt.Sampler
	if sampler == nil {
		sampler = conf.UniformSampler{}
	}
	cfgs := sampler.Sample(t.Space, opt.NTrain, rng)
	jobs := make([]Job, opt.NTrain)
	for i := range jobs {
		jobs[i] = Job{Cfg: cfgs[i], DsizeMB: sizesMB[i%len(sizesMB)]}
	}
	return jobs
}

// ExecuteRows executes the named sweep rows on the tuner's executor and
// returns them as RowTimes in the given index order — one chunk of a
// collect sweep, split across the tuner's Parallelism. The fleet worker
// and the coordinator's local fallback run their chunks here. Indices
// must be ascending and inside jobs. Each row's time depends only on its
// job spec, so the times match a full CollectResumable run bit-for-bit.
func (t *Tuner) ExecuteRows(ctx context.Context, jobs []Job, indices []int) ([]RowTime, error) {
	chunk := make([]Job, len(indices))
	for k, i := range indices {
		if i < 0 || i >= len(jobs) {
			return nil, fmt.Errorf("core: row index %d outside sweep of %d rows", i, len(jobs))
		}
		if k > 0 && i <= indices[k-1] {
			return nil, fmt.Errorf("core: row indices not ascending at %d", i)
		}
		chunk[k] = jobs[i]
	}
	workers := t.Opt.withDefaults().Parallelism
	times, _, err := t.runRows(ctx, 0, chunk, max(1, (len(chunk)+workers-1)/workers), "chunk", RowHooks{})
	if err != nil {
		return nil, err
	}
	rows := make([]RowTime, len(indices))
	for k, i := range indices {
		rows[k] = RowTime{Index: i, Job: jobs[i], TimeSec: times[k]}
	}
	return rows, nil
}

// CollectResumable is Collect with durability seams: rows already known
// (journaled by a previous, interrupted run) are skipped, freshly
// executed rows are handed to OnBatch in checkpoint-sized batches as they
// complete, and ctx cancels the sweep between batches. The collected set
// is the same for any hooks — row times depend only on (Seed, Exec),
// never on batch boundaries, worker count, or which rows were resumed —
// so a CSV written from a resumed sweep matches an uninterrupted run
// exactly, at any GOMAXPROCS.
//
// On cancellation the error wraps ctx.Err(), and on an OnBatch failure it
// wraps that error; rows that completed before either were already
// delivered to OnBatch, so a journaling caller loses at most the batches
// in flight.
func (t *Tuner) CollectResumable(ctx context.Context, sizesMB []float64, hooks RowHooks) (*dataset.Set, Overhead, error) {
	sp := t.Obs.StartSpan("collect")
	defer sp.End()
	return t.collect(ctx, sizesMB, hooks)
}

// collect runs one collect sweep through the row engine and gathers the
// rows into a training set in index order.
func (t *Tuner) collect(ctx context.Context, sizesMB []float64, hooks RowHooks) (*dataset.Set, Overhead, error) {
	if len(sizesMB) == 0 {
		return nil, Overhead{}, fmt.Errorf("core: no dataset sizes")
	}
	batchRows := hooks.BatchRows
	if batchRows <= 0 {
		batchRows = defaultBatchRows
	}
	jobs := t.CollectJobs(sizesMB)
	times, known, err := t.runRows(ctx, 0, jobs, batchRows, "collect", hooks)
	if err != nil {
		return nil, Overhead{}, err
	}
	set := dataset.NewSet(t.Space)
	var clusterSec float64
	for i, j := range jobs {
		set.Add(j.Cfg, j.DsizeMB, times[i])
		clusterSec += times[i]
	}
	t.Obs.Counter("core.collect.jobs").Add(int64(len(jobs) - known))
	if known > 0 {
		t.Obs.Counter("core.collect.resumed.rows").Add(int64(known))
	}
	t.Obs.Float("core.collect.cluster.sec").Add(clusterSec)
	return set, Overhead{CollectClusterHours: clusterSec / 3600}, nil
}

// runRows is the row engine: every sweep row the tuner executes — a
// collect, TuneOnline's screening, candidate and confirming rows, a fleet
// chunk — runs here. jobs are rows base, base+1, ... of the hooks' index
// space. Rows hooks.Known reports land as-is; the rest queue in index
// order as batchRows-sized batches that up to Parallelism workers pull
// from a shared queue. A batch is one ExecuteBatch call when the executor
// is a BatchExecutor ("core.collect.batches" counts those calls, each
// timed under the "core.collect.batch" span) and per-job Execute calls
// otherwise; its rows then go to hooks.OnBatch and hooks.Progress under
// phase. Times land by position, so the result is byte-identical for any
// executor kind, batch size, worker count, or GOMAXPROCS. Cancelling ctx
// or an OnBatch error stops the queue between batches. Every time is
// validated finite and positive. known counts the rows Known replayed.
func (t *Tuner) runRows(ctx context.Context, base int, jobs []Job, batchRows int, phase string, hooks RowHooks) (times []float64, known int, err error) {
	times = make([]float64, len(jobs))
	pending := make([]int, 0, len(jobs))
	for i := range jobs {
		if hooks.Known != nil {
			if sec, ok := hooks.Known(base + i); ok {
				times[i] = sec
				continue
			}
		}
		pending = append(pending, i)
	}
	known = len(jobs) - len(pending)
	progress := func(done int) {
		if hooks.Progress != nil {
			hooks.Progress(phase, done, len(jobs))
		}
	}
	progress(known)

	batches := make(chan []int, (len(pending)+batchRows-1)/batchRows)
	for lo := 0; lo < len(pending); lo += batchRows {
		batches <- pending[lo:min(lo+batchRows, len(pending))]
	}
	close(batches)

	be, batched := t.Exec.(BatchExecutor)
	var (
		done    atomic.Int64
		stopped atomic.Bool
		errMu   sync.Mutex
		hookErr error
		wg      sync.WaitGroup
	)
	done.Store(int64(known))
	for c := min(t.Opt.withDefaults().Parallelism, len(batches)); c > 0; c-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var jbuf []Job
			for idx := range batches {
				if ctx.Err() != nil || stopped.Load() {
					return // abandon; completed batches were already delivered
				}
				jbuf = jbuf[:0]
				for _, i := range idx {
					jbuf = append(jbuf, jobs[i])
				}
				var sec []float64
				if batched {
					bs := t.Obs.StartSpan("core.collect.batch")
					sec = be.ExecuteBatch(jbuf)
					bs.End()
					t.Obs.Counter("core.collect.batches").Inc()
				} else {
					sec = make([]float64, len(jbuf))
					for k, j := range jbuf {
						sec[k] = t.Exec.Execute(j.Cfg, j.DsizeMB)
					}
				}
				for k, i := range idx {
					times[i] = sec[k]
				}
				if hooks.OnBatch != nil {
					rows := make([]RowTime, len(idx))
					for k, i := range idx {
						rows[k] = RowTime{Index: base + i, Job: jobs[i], TimeSec: sec[k]}
					}
					if err := hooks.OnBatch(rows); err != nil {
						errMu.Lock()
						if hookErr == nil {
							hookErr = err
						}
						errMu.Unlock()
						stopped.Store(true)
						return
					}
				}
				progress(int(done.Add(int64(len(idx)))))
			}
		}()
	}
	wg.Wait()
	if hookErr != nil {
		return nil, known, fmt.Errorf("core: %s checkpoint: %w", phase, hookErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, known, fmt.Errorf("core: %s interrupted: %w", phase, err)
	}
	for i, sec := range times {
		if sec <= 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
			return nil, known, fmt.Errorf("core: execution %d returned time %v", base+i, sec)
		}
	}
	return times, known, nil
}
