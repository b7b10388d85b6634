package sparksim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/conf"
)

// randomPairs draws n (configuration, input size) pairs from the standard
// space.
func randomPairs(n int, seed int64) []RunSpec {
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]RunSpec, n)
	for i := range pairs {
		pairs[i] = RunSpec{Cfg: space.Random(rng), InputMB: 1024 * (1 + 99*rng.Float64())}
	}
	return pairs
}

// TestRunBatchMatchesRun pins the batching contract: every result of a
// RunBatchInto call into fresh storage — full breakdown, not just
// TotalSec — must be bit-identical to the corresponding Run call, for any
// way of slicing the pairs into batches and at any GOMAXPROCS. A
// violation means scratch reuse leaked state between runs.
func TestRunBatchMatchesRun(t *testing.T) {
	sim := newTestSim()
	p := testProgram()
	const n = 64
	pairs := randomPairs(n, 81)
	want := make([]*Result, n)
	for i, pr := range pairs {
		want[i] = sim.Run(p, pr.InputMB, pr.Cfg)
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		for _, bs := range []int{1, 3, 17, n} {
			for lo := 0; lo < n; lo += bs {
				hi := lo + bs
				if hi > n {
					hi = n
				}
				got := sim.RunBatchInto(p, pairs[lo:hi], nil)
				for i := range got {
					if r := &got[i]; !reflect.DeepEqual(r, want[lo+i]) {
						runtime.GOMAXPROCS(prev)
						t.Fatalf("procs=%d batch=%d pair %d: RunBatchInto diverged from Run\nbatch:  %+v\nserial: %+v",
							procs, bs, lo+i, r, want[lo+i])
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRunBatchConcurrentCallers checks that concurrent RunBatchInto calls
// on one simulator, each into its own storage, stay independent: each
// batch owns its scratch, so parallel callers must reproduce the serial
// reference exactly.
func TestRunBatchConcurrentCallers(t *testing.T) {
	sim := newTestSim()
	p := testProgram()
	const n = 40
	pairs := randomPairs(n, 82)
	want := make([]*Result, n)
	for i, pr := range pairs {
		want[i] = sim.Run(p, pr.InputMB, pr.Cfg)
	}
	const callers = 4
	got := make([][]Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = sim.RunBatchInto(p, pairs, nil)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		for i := range want {
			if !reflect.DeepEqual(&got[c][i], want[i]) {
				t.Fatalf("caller %d pair %d: concurrent RunBatchInto diverged from Run", c, i)
			}
		}
	}
}

// runEach is the serial reference of a batch: one Run per pair.
func runEach(sim *Simulator, p *Program, pairs []RunSpec) []*Result {
	out := make([]*Result, len(pairs))
	for i, pr := range pairs {
		out[i] = sim.Run(p, pr.InputMB, pr.Cfg)
	}
	return out
}

// TestRunBatchIntoMatchesRunBatch pins the storage-reuse contract: a
// RunBatchInto call must produce, per pair, exactly the Result of a
// batch of single Run calls — including when the destination slice is
// recycled across batches of different programs and sizes, which
// exercises the stale-field and Stages-reuse reset paths.
func TestRunBatchIntoMatchesRunBatch(t *testing.T) {
	sim := newTestSim()
	p := testProgram()
	const n = 48
	pairs := randomPairs(n, 83)
	want := runEach(sim, p, pairs)

	// Fresh storage.
	got := sim.RunBatchInto(p, pairs, nil)
	if len(got) != n {
		t.Fatalf("RunBatchInto returned %d results for %d pairs", len(got), n)
	}
	for i := range want {
		if !reflect.DeepEqual(&got[i], want[i]) {
			t.Fatalf("pair %d: RunBatchInto diverged from Run\ninto:  %+v\nrun:   %+v",
				i, &got[i], want[i])
		}
	}

	// Recycled storage: run a different workload into the same slice, then
	// the original pairs again — any stale field or unreset stage would
	// surface as a diff against the reference.
	skewed := &Program{
		Name: "skewed-into",
		Stages: []Stage{
			{Name: "map", InputFrac: 1, CPUSecPerMB: 0.2, MemExpansion: 1, SkewFactor: 6},
			{Name: "agg", InputFrac: 0, ShuffleInFrac: 0.4, CPUSecPerMB: 0.1, MemExpansion: 1, ReadsShuffle: true},
		},
	}
	got = sim.RunBatchInto(skewed, pairs[:n/2], got)
	for i, r := range runEach(sim, skewed, pairs[:n/2]) {
		if !reflect.DeepEqual(&got[i], r) {
			t.Fatalf("skewed pair %d: recycled RunBatchInto diverged", i)
		}
	}
	got = sim.RunBatchInto(p, pairs, got)
	for i := range want {
		if !reflect.DeepEqual(&got[i], want[i]) {
			t.Fatalf("pair %d: RunBatchInto over recycled storage diverged from Run", i)
		}
	}
}

// TestSpeculativeCopiesCountAsLaunches pins the launch accounting: a
// speculative copy is a task attempt the cluster actually ran, so enabling
// speculation on a skewed stage must raise TasksLaunched above the
// speculation-off run — without any of the increase coming from failures.
func TestSpeculativeCopiesCountAsLaunches(t *testing.T) {
	p := &Program{
		Name: "skewed",
		Stages: []Stage{
			{Name: "map", InputFrac: 1, CPUSecPerMB: 0.2, MemExpansion: 1, SkewFactor: 6},
		},
	}
	space := conf.StandardSpace()
	off := space.Default().Set(conf.ExecutorMemory, 8192)
	on := off.Clone().SetBool(conf.Speculation, true)
	sim := newTestSim()
	rOff := sim.Run(p, 30*1024, off)
	rOn := sim.Run(p, 30*1024, on)
	if rOff.TasksFailed != 0 || rOn.TasksFailed != 0 {
		t.Fatalf("unexpected failures muddy the accounting: off=%d on=%d",
			rOff.TasksFailed, rOn.TasksFailed)
	}
	if rOn.TasksLaunched <= rOff.TasksLaunched {
		t.Fatalf("speculative copies not counted as launches: on=%d off=%d",
			rOn.TasksLaunched, rOff.TasksLaunched)
	}
	if rOn.TotalSec >= rOff.TotalSec {
		t.Fatalf("speculation should still trim the makespan: on=%v off=%v",
			rOn.TotalSec, rOff.TotalSec)
	}
}
