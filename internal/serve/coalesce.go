package serve

import (
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// coalescer gathers concurrent predict requests for one pinned model
// version into model.PredictBatch calls — the same dedup-batch shape as
// the GA's evaluator, applied to serving. The first request to arrive at
// an empty batch becomes the leader: it waits up to window for company
// (or until the batch fills to maxBatch), detaches the batch, scores it
// in one PredictBatch call, and wakes the followers. Batch-capable
// models (hm, rf) then walk their ensemble tree-at-a-time over all
// gathered rows instead of re-faulting the whole model per request.
//
// Semantics are deterministic even though batch composition is not:
// PredictBatch's contract is bit-identity with per-row Predict, so a
// request's answer does not depend on which batch it landed in or where
// in the batch it sat. That is what the equivalence suite asserts per
// backend at GOMAXPROCS 1 and 4.
type coalescer struct {
	window time.Duration

	mu  sync.Mutex
	cur *predBatch

	batches *obs.Counter
	sizes   *obs.Histogram
}

// maxBatch flushes a batch early once it has this many rows.
const maxBatch = 64

// predBatch is one in-flight gather. rows is appended under the
// coalescer's mutex only while the batch is attached (cur == b); the
// leader detaches the batch before reading rows, so the slice is frozen
// by the time it is scored. done publishes out, or failure, to the
// followers.
type predBatch struct {
	rows    [][]float64
	out     []float64
	failure any           // the value PredictBatch panicked with, if it did
	full    chan struct{} // closed when maxBatch is reached
	done    chan struct{} // closed once out is filled or scoring failed
}

// predict scores x through the current batch, blocking until the
// batch's leader has flushed it. If scoring the batch panics, the leader
// and every follower panic with the same value.
func (co *coalescer) predict(m model.Model, x []float64) float64 {
	co.mu.Lock()
	b := co.cur
	leader := b == nil
	if leader {
		b = &predBatch{full: make(chan struct{}), done: make(chan struct{})}
		co.cur = b
	}
	idx := len(b.rows)
	b.rows = append(b.rows, x)
	if len(b.rows) >= maxBatch {
		co.cur = nil // detach: nothing more may join
		close(b.full)
	}
	co.mu.Unlock()

	if !leader {
		<-b.done
		if b.failure != nil {
			panic(b.failure)
		}
		return b.out[idx]
	}

	if co.window > 0 {
		t := time.NewTimer(co.window)
		select {
		case <-b.full:
			t.Stop()
		case <-t.C:
		}
	}
	co.mu.Lock()
	if co.cur == b {
		co.cur = nil // window elapsed before the batch filled
	}
	co.mu.Unlock()

	co.flush(m, b)
	return b.out[idx]
}

// flush scores a detached batch and releases its followers on every
// path: a panic in PredictBatch is recorded for them before it
// propagates.
func (co *coalescer) flush(m model.Model, b *predBatch) {
	defer close(b.done)
	defer func() {
		if r := recover(); r != nil {
			b.failure = r
			panic(r)
		}
	}()
	b.out = make([]float64, len(b.rows))
	model.PredictBatch(m, b.rows, b.out)
	co.batches.Inc()
	co.sizes.Observe(float64(len(b.rows)))
}
