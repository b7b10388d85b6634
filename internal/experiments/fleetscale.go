package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/workloads"
)

// FleetOutcome is one row of the fleet scaling table: a full sharded
// collect sweep at one worker count.
type FleetOutcome struct {
	Workers    int
	Rows       int
	ElapsedSec float64
	RowsPerSec float64
}

// fleetChunkRows matches the daemon's default lease granularity.
const fleetChunkRows = 64

// FleetScale measures the distributed collect path (DESIGN.md §15) at
// each worker count: a real coordinator behind a loopback HTTP listener,
// in-process worker agents running the production SimRunner, one full
// TS sweep per count. Every sweep merges exactly sc.NTrain rows — the
// fleet changes wall-clock, never results — so the table isolates
// throughput scaling.
func FleetScale(sc Scale, workerCounts []int) ([]FleetOutcome, error) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		return nil, err
	}
	t := core.NewSimTuner(w, sc.Cluster, core.Options{NTrain: sc.NTrain, Seed: sc.Seed}, nil)
	sizes := t.TrainingSizesMB(w.TrainingRangeMB())
	spec := fleet.SweepSpec{
		Workload: w.Abbr,
		Seed:     sc.Seed,
		NTrain:   sc.NTrain,
		SizesMB:  sizes,
		MetaHash: journal.MetaHash(w.Abbr, sc.Seed, sc.NTrain, sizes),
	}

	out := make([]FleetOutcome, 0, len(workerCounts))
	for _, n := range workerCounts {
		elapsed, err := runFleetSweep(spec, n)
		if err != nil {
			return nil, fmt.Errorf("fleet sweep with %d workers: %w", n, err)
		}
		out = append(out, FleetOutcome{
			Workers:    n,
			Rows:       sc.NTrain,
			ElapsedSec: elapsed.Seconds(),
			RowsPerSec: float64(sc.NTrain) / elapsed.Seconds(),
		})
	}
	return out, nil
}

// runFleetSweep runs one sweep on a fresh coordinator + n workers and
// returns its wall-clock time.
func runFleetSweep(spec fleet.SweepSpec, n int) (time.Duration, error) {
	c := fleet.NewCoordinator(fleet.Options{LeaseTTL: 10 * time.Second, ChunkRows: fleetChunkRows})
	mux := http.NewServeMux()
	c.Routes(mux, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wrk := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: base,
			Name:        fmt.Sprintf("scale-w%d", i),
			Parallelism: 1, // scaling comes from worker count, not intra-worker threads
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrk.Run(ctx)
		}()
	}

	var mu sync.Mutex
	merged := 0
	start := time.Now()
	err = c.RunSweep(ctx, 1, spec, fleet.SweepHooks{
		OnRows: func(rows []core.RowTime) error {
			mu.Lock()
			merged += len(rows)
			mu.Unlock()
			return nil
		},
	})
	elapsed := time.Since(start)
	cancel()
	wg.Wait()
	if err != nil {
		return 0, err
	}
	if merged != spec.NTrain {
		return 0, fmt.Errorf("merged %d of %d rows", merged, spec.NTrain)
	}
	return elapsed, nil
}

// RenderFleetScale prints the scaling table.
func RenderFleetScale(outcomes []FleetOutcome) string {
	var b strings.Builder
	if len(outcomes) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Sharded collect throughput (TS, %d rows, chunk %d):\n\n", outcomes[0].Rows, fleetChunkRows)
	fmt.Fprintf(&b, "%8s %12s %10s %8s\n", "workers", "elapsed(s)", "rows/sec", "speedup")
	base := outcomes[0].RowsPerSec
	for _, o := range outcomes {
		fmt.Fprintf(&b, "%8d %12.2f %10.0f %7.2fx\n", o.Workers, o.ElapsedSec, o.RowsPerSec, o.RowsPerSec/base)
	}
	b.WriteString("\nThe merged training set is byte-identical at every worker count;\nthe fleet buys wall-clock, not different data.\n")
	return b.String()
}
