package sparksim

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/conf"
)

// testProgram is a small two-stage shuffle job used across tests.
func testProgram() *Program {
	return &Program{
		Name: "test-job",
		Stages: []Stage{
			{Name: "map", InputFrac: 1, CPUSecPerMB: 0.05, ShuffleFrac: 0.5, MemExpansion: 2},
			{Name: "reduce", ReadsShuffle: true, ShuffleInFrac: 0.5, CPUSecPerMB: 0.03, MemExpansion: 2, OutputFrac: 0.1},
		},
	}
}

func newTestSim() *Simulator { return New(cluster.Standard(), 1) }

func TestRunProducesPositiveTime(t *testing.T) {
	sim := newTestSim()
	cfg := conf.StandardSpace().Default()
	res := sim.Run(testProgram(), 10*1024, cfg)
	if res.TotalSec <= 0 {
		t.Fatalf("TotalSec = %v, want > 0", res.TotalSec)
	}
	if len(res.Stages) != 2 {
		t.Fatalf("got %d stage results, want 2", len(res.Stages))
	}
	sum := 0.0
	for _, sr := range res.Stages {
		if sr.Sec < 0 || sr.GCSec < 0 || sr.SpillSec < 0 {
			t.Errorf("stage %s has negative component: %+v", sr.Name, sr)
		}
		sum += sr.Sec
	}
	if res.Aborted {
		if res.TotalSec < sum {
			t.Errorf("aborted total %v should include penalty over stage sum %v", res.TotalSec, sum)
		}
	} else if diff := res.TotalSec - sum; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("TotalSec %v != stage sum %v", res.TotalSec, sum)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := conf.StandardSpace().Default()
	a := newTestSim().Run(testProgram(), 5000, cfg)
	b := newTestSim().Run(testProgram(), 5000, cfg)
	if a.TotalSec != b.TotalSec {
		t.Fatalf("same seed gave %v and %v", a.TotalSec, b.TotalSec)
	}
	c := New(cluster.Standard(), 2).Run(testProgram(), 5000, cfg)
	if a.TotalSec == c.TotalSec {
		t.Error("different seeds gave identical noisy results (suspicious)")
	}
}

func TestMoreDataTakesLonger(t *testing.T) {
	sim := newTestSim()
	cfg := conf.StandardSpace().Default()
	small := sim.Run(testProgram(), 1024, cfg)
	big := sim.Run(testProgram(), 64*1024, cfg)
	if big.TotalSec <= small.TotalSec {
		t.Fatalf("64GB (%v s) not slower than 1GB (%v s)", big.TotalSec, small.TotalSec)
	}
}

func TestMoreMemoryHelpsUnderPressure(t *testing.T) {
	sim := newTestSim()
	space := conf.StandardSpace()
	small := space.Default() // 1024 MB executors
	large := space.Default().Set(conf.ExecutorMemory, 12288)
	tSmall := sim.Run(testProgram(), 50*1024, small)
	tLarge := sim.Run(testProgram(), 50*1024, large)
	if tLarge.TotalSec >= tSmall.TotalSec {
		t.Fatalf("12GB executors (%v s) not faster than 1GB (%v s) on 50GB input",
			tLarge.TotalSec, tSmall.TotalSec)
	}
}

func TestKryoBeatsJavaOnShuffleHeavyJob(t *testing.T) {
	sim := newTestSim()
	space := conf.StandardSpace()
	base := space.Default().Set(conf.ExecutorMemory, 8192).Set(conf.DefaultParallelism, 50)
	java := base.Clone().Set(conf.Serializer, conf.SerializerJava)
	kryo := base.Clone().Set(conf.Serializer, conf.SerializerKryo)
	tj := sim.Run(testProgram(), 40*1024, java)
	tk := sim.Run(testProgram(), 40*1024, kryo)
	if tk.TotalSec >= tj.TotalSec {
		t.Fatalf("kryo (%v s) not faster than java (%v s)", tk.TotalSec, tj.TotalSec)
	}
}

func TestSpillDisabledCausesFailures(t *testing.T) {
	sim := newTestSim()
	cfg := conf.StandardSpace().Default().
		SetBool(conf.ShuffleSpill, false).
		Set(conf.DefaultParallelism, 8).
		Set(conf.TaskMaxFailures, 1)
	res := sim.Run(testProgram(), 100*1024, cfg)
	if res.TasksFailed == 0 && !res.Aborted {
		t.Fatal("100GB with no spilling, tiny executors and maxFailures=1 should fail tasks")
	}
}

func TestAbortPenaltyApplied(t *testing.T) {
	sim := newTestSim()
	cfg := conf.StandardSpace().Default().
		SetBool(conf.ShuffleSpill, false).
		Set(conf.DefaultParallelism, 8).
		Set(conf.TaskMaxFailures, 1)
	res := sim.Run(testProgram(), 200*1024, cfg)
	if !res.Aborted {
		t.Skip("configuration did not abort; threshold moved")
	}
	if res.TotalSec < 300 {
		t.Errorf("aborted run time %v should include the rerun penalty", res.TotalSec)
	}
}

func TestGCReportedAndDisableable(t *testing.T) {
	cfg := conf.StandardSpace().Default()
	on := newTestSim().Run(testProgram(), 20*1024, cfg)
	if on.GCSec <= 0 {
		t.Fatal("expected nonzero GC time on a default-config run")
	}
	off := &Simulator{Cluster: cluster.Standard(), Seed: 1, Opt: Options{DisableGC: true}}
	res := off.Run(testProgram(), 20*1024, cfg)
	if res.GCSec != 0 {
		t.Fatalf("DisableGC run reported GCSec=%v", res.GCSec)
	}
	if res.TotalSec >= on.TotalSec {
		t.Error("disabling GC should not slow the job down")
	}
}

func TestSpillAccounting(t *testing.T) {
	sim := newTestSim()
	cfg := conf.StandardSpace().Default().Set(conf.DefaultParallelism, 8)
	res := sim.Run(testProgram(), 100*1024, cfg)
	if res.SpillMB <= 0 {
		t.Fatal("big job on 1GB executors should spill")
	}
	rich := conf.StandardSpace().Default().
		Set(conf.ExecutorMemory, 12288).
		Set(conf.ExecutorCores, 2).
		Set(conf.DefaultParallelism, 50)
	res2 := sim.Run(testProgram(), 10*1024, rich)
	if res2.SpillMB >= res.SpillMB {
		t.Errorf("well-provisioned job spilled %v MB >= starved job %v MB", res2.SpillMB, res.SpillMB)
	}
}

func TestSpeculationTrimsStragglers(t *testing.T) {
	// With heavy skew, enabling speculation should reduce the makespan.
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
	tOff := sim.Run(p, 30*1024, off).TotalSec
	tOn := sim.Run(p, 30*1024, on).TotalSec
	if tOn >= tOff {
		t.Fatalf("speculation on (%v s) not faster than off (%v s) under skew", tOn, tOff)
	}
}

func TestCacheMissesSlowIterativeJobs(t *testing.T) {
	p := &Program{
		Name: "iterative",
		Stages: []Stage{
			{Name: "load", InputFrac: 1, CPUSecPerMB: 0.02, MemExpansion: 2, CacheOutputFrac: 1},
			{Name: "iterate", Repeat: 5, CacheInput: true, InputFrac: 1, CPUSecPerMB: 0.05, MemExpansion: 1.5},
		},
	}
	sim := newTestSim()
	cfg := conf.StandardSpace().Default().Set(conf.ExecutorMemory, 12288).Set(conf.ExecutorCores, 4)
	fits := sim.Run(p, 20*1024, cfg)    // 20GB cached across ~160GB of storage
	spills := sim.Run(p, 300*1024, cfg) // 300GB cannot be cached
	perMBFits := fits.TotalSec / (20 * 1024)
	perMBSpills := spills.TotalSec / (300 * 1024)
	if perMBSpills <= perMBFits {
		t.Fatalf("per-MB cost should rise when the working set stops fitting: %v vs %v",
			perMBSpills, perMBFits)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	bad := []Program{
		{Name: "", Stages: []Stage{{Name: "s"}}},
		{Name: "x"},
		{Name: "x", Stages: []Stage{{Name: ""}}},
		{Name: "x", Stages: []Stage{{Name: "s", InputFrac: -1}}},
		{Name: "x", Stages: []Stage{{Name: "s", ReadsShuffle: true}}},
		{Name: "x", Stages: []Stage{{Name: "s", CPUSecPerMB: -0.1}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("program %d should fail validation", i)
		}
	}
	if err := testProgram().Validate(); err != nil {
		t.Errorf("good program failed validation: %v", err)
	}
}

func TestScheduleTasks(t *testing.T) {
	// 4 tasks of 1s on 2 slots: makespan 2s.
	span, n := scheduleTasks([]float64{1, 1, 1, 1}, 2)
	if span != 2 || n != 4 {
		t.Fatalf("span=%v n=%d, want 2, 4", span, n)
	}
	// One long task dominates.
	span, _ = scheduleTasks([]float64{5, 1, 1, 1}, 4)
	if span != 5 {
		t.Fatalf("span=%v, want 5", span)
	}
	// Zero slots clamps to one slot.
	span, _ = scheduleTasks([]float64{1, 1}, 0)
	if span != 2 {
		t.Fatalf("span=%v, want 2 on a single slot", span)
	}
}

// plainSchedule is the list-scheduling loop in its plainest form: a
// container/heap of slot-free times starting all at zero, each task
// popping the earliest-free slot and pushing its finish time back.
func plainSchedule(durs []float64, slots int) float64 {
	if slots < 1 {
		slots = 1
	}
	h := &floatHeap{}
	for i := 0; i < slots; i++ {
		heap.Push(h, 0.0)
	}
	span := 0.0
	for _, d := range durs {
		fin := heap.Pop(h).(float64) + d
		heap.Push(h, fin)
		if fin > span {
			span = fin
		}
	}
	return span
}

type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestScheduleTasksMatchesPlainHeap checks the scheduler's shortcuts — no
// heap for a single-wave stage, a heapified first wave otherwise —
// against the plain heap loop, bit for bit, over random stages: one and
// many waves, zero-slot clamping, repeated and zero durations, and a
// reused scratch heap.
func TestScheduleTasksMatchesPlainHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := newRunScratch()
	for trial := 0; trial < 3000; trial++ {
		tasks := rng.Intn(200)
		slots := rng.Intn(64)
		durs := make([]float64, tasks)
		for i := range durs {
			switch rng.Intn(8) {
			case 0:
				durs[i] = 0
			case 1:
				durs[i] = float64(1 + rng.Intn(4)) // exact ties
			default:
				durs[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
		}
		want := plainSchedule(durs, slots)
		var scratch *runScratch
		if trial%2 == 1 {
			scratch = sc
		}
		span, n := scheduleTasksIn(durs, slots, scratch)
		if math.Float64bits(span) != math.Float64bits(want) || n != tasks {
			t.Fatalf("trial %d (%d tasks, %d slots): span %v (%d launches), plain heap %v",
				trial, tasks, slots, span, n, want)
		}
	}
}

// Property: execution time is always positive and finite for random legal
// configurations — the models must never see NaN targets.
func TestRunAlwaysFiniteProperty(t *testing.T) {
	sim := newTestSim()
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(6))
	f := func(int64) bool {
		cfg := space.Random(rng)
		mb := 1024 * (1 + rng.Float64()*99)
		res := sim.Run(testProgram(), mb, cfg)
		return res.TotalSec > 0 && res.TotalSec < 1e9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: per-stage components never exceed the stage's total.
func TestStageComponentBoundsProperty(t *testing.T) {
	sim := newTestSim()
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(7))
	f := func(int64) bool {
		cfg := space.Random(rng)
		res := sim.Run(testProgram(), 20*1024, cfg)
		for _, sr := range res.Stages {
			if sr.GCSec < 0 || sr.SpillSec < 0 || sr.ShuffleReadSec < 0 || sr.ShuffleWriteSec < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with run-to-run noise disabled, doubling the input never makes
// a job faster, for any legal configuration.
func TestDatasizeMonotoneProperty(t *testing.T) {
	sim := &Simulator{Cluster: cluster.Standard(), Seed: 1, Opt: Options{NoiseSigma: -1}}
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(11))
	p := testProgram()
	for k := 0; k < 60; k++ {
		cfg := space.Random(rng)
		mb := 1024 * (2 + rng.Float64()*30)
		small := sim.Run(p, mb, cfg).TotalSec
		big := sim.Run(p, 2*mb, cfg).TotalSec
		if big <= small {
			t.Fatalf("config %d: 2x input not slower (%.1fs -> %.1fs)\n%s", k, small, big, cfg)
		}
	}
}

// Noise can be disabled entirely for deterministic what-if analysis.
func TestNoiseDisabled(t *testing.T) {
	a := &Simulator{Cluster: cluster.Standard(), Seed: 1, Opt: Options{NoiseSigma: -1}}
	b := &Simulator{Cluster: cluster.Standard(), Seed: 2, Opt: Options{NoiseSigma: -1}}
	cfg := conf.StandardSpace().Default()
	ra := a.Run(testProgram(), 10*1024, cfg).TotalSec
	rb := b.Run(testProgram(), 10*1024, cfg).TotalSec
	// Different seeds, noise fully disabled: identical results.
	if ra != rb {
		t.Fatalf("noise-free runs differ: %v vs %v", ra, rb)
	}
}

func TestResultStageLookup(t *testing.T) {
	res := newTestSim().Run(testProgram(), 1024, conf.StandardSpace().Default())
	if res.Stage("map") == nil || res.Stage("reduce") == nil {
		t.Fatal("stage lookup failed")
	}
	if res.Stage("nope") != nil {
		t.Fatal("lookup of missing stage should return nil")
	}
}

// TestSelectKthMatchesSort checks the speculation median's selection
// against sorting: on random slices full of duplicates (and some with
// NaNs), every index k selects the value sort.Float64s puts at k, and
// median leaves its input untouched.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sc := newRunScratch()
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(80)
		xs := make([]float64, n)
		distinct := 1 + rng.Intn(n)
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct)) * 0.25
			if trial%10 == 0 && rng.Intn(8) == 0 {
				xs[i] = math.NaN()
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
		for k := range xs {
			work := append([]float64(nil), xs...)
			if got := selectKth(work, k); !same(got, sorted[k]) {
				t.Fatalf("trial %d: selectKth(%v, %d) = %v, sort gives %v", trial, xs, k, got, sorted[k])
			}
		}
		orig := append([]float64(nil), xs...)
		if got := sc.median(xs); !same(got, sorted[n/2]) {
			t.Fatalf("trial %d: median %v, sort gives %v", trial, got, sorted[n/2])
		}
		for i := range xs {
			if !same(xs[i], orig[i]) {
				t.Fatalf("trial %d: median modified its input", trial)
			}
		}
	}
}
