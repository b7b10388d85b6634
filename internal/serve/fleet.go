package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/workloads"
)

// collectFleet is collectDurable's sharded path: the sweep's pending
// rows run on the fleet via the coordinator, merged rows land in the
// same journal through the same hooks the local path uses, and the
// finished journal compacts to its canonical index-sorted form before the
// set is built. The resulting set is byte-identical to the local path's —
// row times are a pure function of each row's spec, and the set is
// assembled by the row engine in index order from the journal regardless
// of which worker produced each row.
func (m *Manager) collectFleet(ctx context.Context, id int64, t *core.Tuner, w *workloads.Workload, sizes []float64, jl *journal.Journal, hooks core.RowHooks) (*dataset.Set, core.Overhead, error) {
	spec := fleet.SweepSpec{
		Workload: w.Abbr,
		Seed:     t.Opt.Seed,
		NTrain:   t.Opt.NTrain,
		SizesMB:  sizes,
		MetaHash: journal.MetaHash(w.Abbr, t.Opt.Seed, t.Opt.NTrain, sizes),
	}
	jobs := t.CollectJobs(sizes)
	m.obs.Counter("serve.collect.fleet.sweeps").Inc()
	err := m.fleet.RunSweep(ctx, id, spec, fleet.SweepHooks{
		Known:  hooks.Known,
		OnRows: hooks.OnBatch,
		Progress: func(done, total int) {
			hooks.Progress("collect", done, total)
		},
		RunLocal: func(ctx context.Context, indices []int) ([]core.RowTime, error) {
			return t.ExecuteRows(ctx, jobs, indices)
		},
	})
	if err != nil {
		return nil, core.Overhead{}, err
	}

	// Canonicalize the merged journal: index-sorted, duplicates (a
	// zombie's chunk that also re-ran after lease expiry) dropped.
	dropped, err := jl.Compact()
	if err != nil {
		return nil, core.Overhead{}, fmt.Errorf("serve: compacting journal: %w", err)
	}
	m.obs.Counter("serve.journal.compactions").Inc()
	m.obs.Counter("serve.journal.compact.dropped").Add(int64(dropped))

	// Build the set through the row engine with every row known: nothing
	// executes, and the times are validated and gathered exactly as the
	// local collector does.
	if n := jl.Rows(); n < len(jobs) {
		return nil, core.Overhead{}, fmt.Errorf("serve: fleet sweep finished with %d of %d rows journaled", n, len(jobs))
	}
	return t.CollectResumable(ctx, sizes, core.RowHooks{Known: jl.Known})
}
