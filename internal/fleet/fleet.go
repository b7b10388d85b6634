// Package fleet turns dacd's collect sweeps into distributed work: a
// coordinator shards a sweep's core.CollectJobs row list into leased
// chunks, and worker agents register, heartbeat, lease chunks, execute
// them on their own simulator, and stream the journaled rows back. The
// coordinator owns the canonical append-only journal (internal/journal):
// worker results merge into it as they arrive, leases that expire when a
// worker dies mid-chunk requeue their chunk, and a finishing sweep
// compacts the journal into global row-index order — so the final CSV is
// byte-identical to a single-process run at any worker count, and
// kill-and-resume semantics extend from one process to the whole fleet.
//
// Worker identity is fenced by registration epochs: re-registering a
// name bumps its epoch and revokes the old epoch's leases, so a zombie
// worker's late results are rejected instead of double-merging. The
// protocol is four JSON-over-HTTP endpoints in the daemon's existing
// style:
//
//	POST /workers/register        {name}                     → {id, epoch, ...}
//	POST /workers/{id}/heartbeat  {epoch}                    → {ok}
//	POST /workers/{id}/lease      {epoch}                    → {lease, sweep, chunk, indices, spec}
//	POST /workers/{id}/results    {epoch, sweep, chunk, rows} → {accepted}
package fleet

import (
	"fmt"

	"repro/internal/journal"
)

// SweepSpec is everything a worker needs to reproduce a sweep's job list
// and execute any chunk of it: core.CollectJobs is a pure function of
// (space, seed, ntrain, sampler), and the simulator derives per-run
// randomness from each run's spec, so a worker rebuilt from this spec
// produces times bit-identical to the coordinator running locally.
type SweepSpec struct {
	// Workload is the abbreviation (TS, WC, ...) naming the program.
	Workload string `json:"workload"`
	// Seed is the tuner seed; core.NewSimTuner derives the simulator seed
	// from it, as it does for the CLI and the daemon.
	Seed int64 `json:"seed"`
	// NTrain is the sweep's total row count.
	NTrain int `json:"ntrain"`
	// SizesMB is the exact training-size cycle, row i using
	// SizesMB[i%len].
	SizesMB []float64 `json:"sizes_mb"`
	// MetaHash binds the spec to the coordinator's journal header;
	// workers recompute it and refuse a spec that does not hash to it.
	MetaHash string `json:"meta_hash"`
}

// Validate checks the spec's internal consistency, in particular that
// MetaHash really is the hash of the other fields.
func (s SweepSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("fleet: sweep spec has no workload")
	}
	if s.NTrain <= 0 {
		return fmt.Errorf("fleet: sweep spec ntrain = %d", s.NTrain)
	}
	if len(s.SizesMB) == 0 {
		return fmt.Errorf("fleet: sweep spec has no sizes")
	}
	if got := journal.MetaHash(s.Workload, s.Seed, s.NTrain, s.SizesMB); got != s.MetaHash {
		return fmt.Errorf("fleet: sweep spec hashes to %s, not the announced %s", got, s.MetaHash)
	}
	return nil
}

// RegisterResponse is the coordinator's answer to a registration: the
// worker's identity plus the cadence hints the agent should follow.
type RegisterResponse struct {
	ID    string `json:"id"`
	Epoch int64  `json:"epoch"`
	// HeartbeatMS is how often the worker should heartbeat; leases are
	// extended on every beat and expire LeaseTTLMS after the last one.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	LeaseTTLMS  int64 `json:"lease_ttl_ms"`
}

// LeaseResponse hands a worker one chunk (or tells it to retry later).
type LeaseResponse struct {
	Lease bool `json:"lease"`
	// RetryMS is the suggested wait before the next lease request when
	// no chunk was granted.
	RetryMS int64 `json:"retry_ms,omitempty"`
	Sweep   int64 `json:"sweep,omitempty"`
	Chunk   int   `json:"chunk,omitempty"`
	// Indices are the sweep row indices to execute, ascending.
	Indices []int     `json:"indices,omitempty"`
	Spec    SweepSpec `json:"spec,omitempty"`
}

// ResultRow is one executed row streamed back to the coordinator.
// float64 JSON encoding round-trips exactly, so the merged journal (and
// the CSV built from it) is bit-identical to local execution.
type ResultRow struct {
	Index   int     `json:"index"`
	TimeSec float64 `json:"time_sec"`
}

// resultsResponse reports whether a chunk's rows were merged. A rejected
// chunk (stale epoch, expired lease, already-completed chunk) is not an
// error for the sweep — the coordinator has already arranged for the
// chunk to be (re)executed elsewhere.
type resultsResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

type registerRequest struct {
	Name string `json:"name,omitempty"`
}

type epochRequest struct {
	Epoch int64 `json:"epoch"`
}

type resultsRequest struct {
	Epoch int64       `json:"epoch"`
	Sweep int64       `json:"sweep"`
	Chunk int         `json:"chunk"`
	Rows  []ResultRow `json:"rows"`
}
