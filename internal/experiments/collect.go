package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// collect gathers n performance vectors for workload w: random
// configurations over ten dataset sizes spanning slightly beyond the
// Table 1 range (so the model interpolates rather than extrapolates at
// the evaluation sizes). It delegates to the hook-capable core sweep —
// checkpoint-sized batches through a worker pool, each batch one
// sparksim.RunBatch call via the pooled batch executor — whose contract
// keeps the collected set deterministic in (simSeed, seed) and
// byte-identical at any GOMAXPROCS and any batch size.
func collect(sc Scale, w *workloads.Workload, n int, simSeed, seed int64) *dataset.Set {
	sp := sc.Obs.StartSpan("experiments.collect")
	defer sp.End()
	sim := sparksim.New(sc.Cluster, simSeed)
	sim.Instrument(sc.Obs)
	sc.Obs.Counter("experiments.collect.jobs").Add(int64(n))

	// UniformSampler draws space.Random(rng) per row — the exact sequence
	// the pre-core inline collector produced from the same seed.
	tuner := &core.Tuner{
		Space: conf.StandardSpace(),
		Exec:  core.NewSimExecutor(sim, &w.Program),
		Opt:   core.Options{NTrain: n, Seed: seed, Sampler: conf.UniformSampler{}},
	}
	set, _, err := tuner.CollectResumable(context.Background(), trainingSizes(w), core.RowHooks{
		OnBatch: func([]core.RowTime) error {
			sc.Obs.Counter("experiments.collect.batches").Inc()
			return nil
		},
	})
	if err != nil {
		// The background context never cancels and the simulator returns
		// finite positive times, so this is unreachable short of a
		// programming error.
		panic(fmt.Sprintf("experiments: collect: %v", err))
	}
	return set
}

// trainingSizes returns the m=10 training dataset sizes (MB) for w,
// geometrically spaced over [0.8·min, 1.1·max] so consecutive sizes
// differ by ≥10% (Eq. 4).
func trainingSizes(w *workloads.Workload) []float64 {
	lo := w.InputMB(w.Sizes[0]) * 0.8
	hi := w.InputMB(w.Sizes[len(w.Sizes)-1]) * 1.1
	const m = 10
	ratio := math.Pow(hi/lo, 1.0/(m-1))
	sizes := make([]float64, m)
	v := lo
	for i := range sizes {
		sizes[i] = v
		v *= ratio
	}
	return sizes
}

// collectDataset is collect followed by conversion to a model dataset.
func collectDataset(sc Scale, w *workloads.Workload, n int, simSeed, seed int64) *model.Dataset {
	return collect(sc, w, n, simSeed, seed).ToDataset()
}
