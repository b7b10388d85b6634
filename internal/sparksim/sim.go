package sparksim

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
)

// Simulator executes Programs on a modelled cluster. It is safe for
// concurrent use: Run shares no mutable state between calls.
type Simulator struct {
	// Cluster is the modelled hardware; use cluster.Standard() for the
	// paper's testbed.
	Cluster cluster.Cluster
	// Opt selects simulator mechanisms (zero value = everything on).
	Opt Options
	// Seed makes runs reproducible. Two simulators with the same seed
	// produce identical results for identical inputs.
	Seed int64

	// metrics is set by Instrument; nil means uninstrumented, which must
	// cost Run nothing beyond a nil check.
	metrics *simMetrics
}

// New returns a Simulator over the given cluster with all mechanisms
// enabled.
func New(cl cluster.Cluster, seed int64) *Simulator {
	return &Simulator{Cluster: cl, Seed: seed}
}

// RunSpec is one (configuration, input size) pair of a RunBatchInto call.
type RunSpec struct {
	Cfg     conf.Config
	InputMB float64
}

// runScratch holds the working buffers one simulated run needs — the
// derived environment, the per-run RNG, the per-stage task durations, the
// median working copy, and the event loop's slot heap. A batch reuses one
// scratch across all of its runs, so the collecting hot loop allocates
// only the Results it returns; every buffer is fully reinitialized per
// use, which keeps scratch reuse invisible to the simulation.
type runScratch struct {
	env  env
	rng  *rand.Rand
	durs []float64
	med  []float64
	heap slotHeap
}

func newRunScratch() *runScratch {
	return &runScratch{rng: rand.New(rand.NewSource(0))}
}

// durations returns a length-n slice for per-task durations; every
// element is overwritten by the caller before use.
func (sc *runScratch) durations(n int) []float64 {
	if cap(sc.durs) < n {
		sc.durs = make([]float64, n)
	}
	return sc.durs[:n]
}

// median returns the median of xs — the element sort.Float64s would
// place at len(xs)/2 — without modifying it, selecting in a reused
// working copy.
func (sc *runScratch) median(xs []float64) float64 {
	if cap(sc.med) < len(xs) {
		sc.med = make([]float64, len(xs))
	}
	s := sc.med[:len(xs)]
	copy(s, xs)
	return selectKth(s, len(s)/2)
}

// selectKth returns the element sort.Float64s would place at index k of
// s (NaNs first), reordering s: a Hoare quickselect that partitions
// around the middle element and keeps only the side holding k, in
// expected linear time.
func selectKth(s []float64, k int) float64 {
	less := func(a, b float64) bool { return a < b || (a != a && b == b) }
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := s[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for less(s[i], p) {
				i++
			}
			for less(p, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo..j] <= p <= s[i..hi], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// slotClock returns a length-n slot heap whose elements the caller
// overwrites before use.
func (sc *runScratch) slotClock(n int) slotHeap {
	if cap(sc.heap) < n {
		sc.heap = make(slotHeap, n)
	}
	return sc.heap[:n]
}

// Run simulates one execution of program p over inputMB megabytes of input
// under configuration cfg and returns the timing breakdown. The result is
// deterministic in (Seed, p.Name, inputMB, cfg).
func (sim *Simulator) Run(p *Program, inputMB float64, cfg conf.Config) *Result {
	if err := p.Validate(); err != nil {
		panic(err) // programs are compile-time constants in this module
	}
	res := new(Result)
	sim.runOneInto(res, p, inputMB, cfg, newRunScratch(), fnvString(p.Name))
	return res
}

// RunBatchInto simulates one execution per (cfg, input) pair into
// caller-owned Result storage, in pair order: out is grown to
// len(pairs) results and returned, and each element's Stages slice is
// reused when its capacity allows, so a caller that keeps the returned
// slice across batches (the collecting sweep) pays no per-run Result
// allocation after the first batch. Every run is bit-identical to the
// corresponding Run call — the per-run RNG seed derivation is
// unchanged, each run re-derives its environment from its own
// configuration, and every field of a reused element is reinitialized —
// but the program is validated once and the scratch buffers (task
// durations, slot heap, median copy, environment struct, RNG state) are
// reused across the batch. A single batch runs its pairs sequentially;
// distinct out slices may be used from several goroutines at once, so
// callers parallelize by splitting work into several batches.
func (sim *Simulator) RunBatchInto(p *Program, pairs []RunSpec, out []Result) []Result {
	if err := p.Validate(); err != nil {
		panic(err) // programs are compile-time constants in this module
	}
	if cap(out) < len(pairs) {
		grown := make([]Result, len(pairs))
		copy(grown, out[:cap(out)]) // keep the recyclable Stages slices
		out = grown
	}
	out = out[:len(pairs)]
	sc := newRunScratch()
	nameHash := fnvString(p.Name)
	for i, pr := range pairs {
		sim.runOneInto(&out[i], p, pr.InputMB, pr.Cfg, sc, nameHash)
	}
	return out
}

// runOneInto executes one simulated run, overwriting every field of the
// caller-owned res (its Stages slice is reused when large enough).
func (sim *Simulator) runOneInto(res *Result, p *Program, inputMB float64, cfg conf.Config, sc *runScratch, nameHash uint64) {
	var t0 time.Time
	if sim.metrics != nil {
		t0 = time.Now()
	}
	e := &sc.env
	e.init(sim.Cluster, cfg, sim.Opt)
	rng := sc.rng
	rng.Seed(sim.runSeed(nameHash, inputMB, cfg))

	stages := res.Stages
	if cap(stages) >= len(p.Stages) {
		stages = stages[:len(p.Stages)]
		for i := range stages {
			stages[i] = StageResult{}
		}
	} else {
		stages = make([]StageResult, len(p.Stages))
	}
	*res = Result{
		Executors: e.executors,
		Slots:     e.slots,
		Stages:    stages,
	}
	maxFail := cfg.GetInt(conf.TaskMaxFailures)

	stageExecs, spillEvents := 0, 0
	for i := range p.Stages {
		st := &p.Stages[i]
		sr := &res.Stages[i]
		sr.Name = st.Name
		for rep := 0; rep < st.Times(); rep++ {
			out := sim.runStage(e, st, inputMB, rng, maxFail, sc)
			stageExecs++
			if out.spillMB > 0 {
				spillEvents++
			}
			if out.aborted {
				// The framework gave the job up after
				// spark.task.maxFailures failures of some task in this
				// stage. The operator's only recourse is rerunning the
				// job, which fails again under the same configuration:
				// the stage is charged three abandoned attempts, the
				// whole job keeps executing (so the cost stays
				// monotone in the remaining work), and the final time
				// carries a rerun penalty. This keeps failing
				// configurations strictly worse than completing ones —
				// a tuner must never prefer a crash.
				res.Aborted = true
				out.sec *= 3
			}
			sr.Sec += out.sec
			sr.GCSec += out.gcSec
			sr.ShuffleReadSec += out.shuffleReadSec
			sr.ShuffleWriteSec += out.shuffleWriteSec
			sr.SpillSec += out.spillSec
			sr.SpillMB += out.spillMB
			sr.Tasks += out.tasks
			sr.Failed += out.failedTasks
			res.TotalSec += out.sec
			res.GCSec += out.gcSec
			res.SpillMB += out.spillMB
			res.TasksLaunched += out.tasks
			res.TasksFailed += out.failedTasks
		}
		if st.CacheOutputFrac > 0 {
			e.cacheAdd(st.CacheOutputFrac * inputMB)
		}
	}
	if res.Aborted {
		res.TotalSec = res.TotalSec*1.5 + 300
	}
	if m := sim.metrics; m != nil {
		m.record(res, stageExecs, spillEvents, time.Since(t0).Seconds())
	}
}

// FNV-1a constants (hash/fnv's 64a variant). The seed derivation inlines
// the hash so the hot path hashes without allocating and a batch can hash
// the program-name prefix once; byte order and constants match hash/fnv
// exactly, so seeds are unchanged from the hasher-based derivation.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvString is the FNV-1a hash of s.
func fnvString(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvFloat folds v's little-endian IEEE-754 bytes into h.
func fnvFloat(h uint64, v float64) uint64 {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(bits>>(8*i)))) * fnvPrime64
	}
	return h
}

// runSeed derives the deterministic per-run RNG seed. nameHash is the
// FNV-1a hash of the program name (fnvString), shared across a batch.
func (sim *Simulator) runSeed(nameHash uint64, inputMB float64, cfg conf.Config) int64 {
	h := fnvFloat(nameHash, inputMB)
	h = fnvFloat(h, float64(sim.Seed))
	for i, n := 0, cfg.Space().Len(); i < n; i++ {
		h = fnvFloat(h, cfg.At(i))
	}
	return int64(h)
}

// stageOutcome carries one stage execution's accounting.
type stageOutcome struct {
	sec             float64
	gcSec           float64
	shuffleReadSec  float64
	shuffleWriteSec float64
	spillSec        float64
	spillMB         float64
	tasks           int
	failedTasks     int
	aborted         bool
}

// taskModel is the average per-task cost decomposition computed once per
// stage; the event loop then perturbs it per task.
type taskModel struct {
	cpuSec   float64 // compute + ser/deser + compression
	diskSec  float64 // local disk reads/writes (input, shuffle write, spill)
	netSec   float64 // shuffle fetch, cache misses over the network
	fixedSec float64 // latency-like terms not subject to contention

	gcSec           float64
	shuffleReadSec  float64
	shuffleWriteSec float64
	spillSec        float64
	spillMB         float64
	oomAttempts     int     // failed attempts before success (0 = clean)
	oomFrac         float64 // fractional attempt count (continuous in the deficit)
	abort           bool
	wastedSec       float64 // time burned by failed attempts
}

func (sim *Simulator) runStage(e *env, st *Stage, inputMB float64, rng *rand.Rand, maxFail int, sc *runScratch) stageOutcome {
	cfg := e.conf
	cl := sim.Cluster
	stageIn := st.InputFrac * inputMB

	// --- Task count -------------------------------------------------------
	par := cfg.GetInt(conf.DefaultParallelism)
	var tasks int
	if st.ReadsShuffle {
		tasks = par
	} else {
		tasks = int(math.Ceil(stageIn / 128)) // one task per 128MB HDFS block
	}
	if tasks < st.MinTasks {
		tasks = st.MinTasks
	}
	if tasks < 1 {
		tasks = 1
	}

	// Local execution: trivially small driver-side jobs skip the cluster.
	// The stage's total volume — fresh input plus shuffle input — must be
	// tiny and it must not feed a shuffle.
	totalIn := stageIn + st.ShuffleInFrac*inputMB
	if cfg.GetBool(conf.LocalExecutionEnabled) && totalIn < 64 && st.ShuffleFrac == 0 {
		cpu := totalIn * st.CPUSecPerMB * (1.9 / cl.CPUGHz) / math.Max(1, float64(e.driverCores))
		return stageOutcome{sec: cpu + 0.05, tasks: 1}
	}

	perTask := stageIn / float64(tasks)
	tm := sim.taskCosts(e, st, inputMB, perTask, tasks, maxFail)

	// --- Per-task durations and the event loop ----------------------------
	// The primary buckets are additive; shuffle and spill attributions are
	// subsets of them and are reported separately, not re-added.
	base := tm.cpuSec + tm.diskSec + tm.netSec + tm.fixedSec + tm.gcSec
	durs := sc.durations(tasks)
	sigma := sim.Opt.noiseSigma()
	// Partition skew belongs to the dataset, not the run: the same 8% of
	// partitions are oversized on every execution, with multipliers
	// spread deterministically up to SkewFactor.
	nSkew := 0
	if st.SkewFactor > 1 {
		nSkew = (tasks + 11) / 12
	}
	for i := range durs {
		d := base
		if i < nSkew {
			frac := float64(i+1) / float64(nSkew)
			d *= 1 + (st.SkewFactor-1)*frac
		}
		if sigma > 0 {
			d *= math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
			if rng.Float64() < 0.004 { // environmental straggler
				d *= 1.3 + 0.7*rng.Float64()
			}
		}
		durs[i] = d
	}

	// Speculative execution trims the straggler tail. Each replaced
	// straggler means a speculative copy actually launched, so it counts
	// toward the stage's task launches — the paper's accounting counts
	// every attempt, not just original tasks.
	specCopies := 0
	if cfg.GetBool(conf.Speculation) && tasks >= 4 {
		med := sc.median(durs)
		mult := cfg.Get(conf.SpeculationMultiplier)
		quant := cfg.Get(conf.SpeculationQuantile)
		intervalSec := cfg.Get(conf.SpeculationInterval) / 1000
		thresh := mult * med
		// A copy launches once the quantile of tasks has finished and
		// the straggler exceeds the threshold; it completes in about a
		// median duration.
		copyDone := math.Max(thresh, quant*med) + intervalSec + med
		for i, d := range durs {
			if d > thresh && copyDone < d {
				durs[i] = copyDone
				specCopies++
			}
		}
	}

	span, launches := scheduleTasksIn(durs, e.slots, sc)
	launches += specCopies

	// --- Stage-level overheads --------------------------------------------
	over := 0.0
	// Task launch and control-plane messaging.
	akkaThreads := float64(cfg.GetInt(conf.AkkaThreads))
	over += float64(tasks) * (0.004 + 0.0008/akkaThreads)
	// Scheduler revive latency: one before the stage plus a sliver per wave.
	revive := cfg.Get(conf.SchedulerReviveInterval)
	waves := math.Ceil(float64(tasks) / float64(e.slots))
	over += 0.3*revive + 0.04*revive*waves
	// Heartbeat processing cost, inversely proportional to the interval.
	over += span * 0.00002 * (5000 / math.Max(200, cfg.Get(conf.AkkaHeartbeatInterval)))

	// Broadcast variables at stage start.
	if st.BroadcastMB > 0 {
		over += sim.broadcastCost(e, st.BroadcastMB)
	}

	// Per-task components convert to wall-clock contributions via the
	// average pipeline depth (tasks/slots waves).
	out := stageOutcome{
		tasks:           launches + tasks*tm.oomAttempts,
		failedTasks:     tasks * tm.oomAttempts,
		gcSec:           tm.gcSec * wallShare(tasks, e.slots),
		shuffleReadSec:  tm.shuffleReadSec * wallShare(tasks, e.slots),
		shuffleWriteSec: tm.shuffleWriteSec * wallShare(tasks, e.slots),
		spillSec:        tm.spillSec * wallShare(tasks, e.slots),
		spillMB:         tm.spillMB * float64(tasks),
		aborted:         tm.abort,
	}

	// Wasted time from failed attempts extends the critical path roughly
	// by the per-slot share of the rerun work.
	wasted := tm.wastedSec * float64(tasks) / float64(e.slotsOr1())
	sec := span + over + wasted

	// Collect results to the driver.
	if st.CollectMB > 0 || st.CollectFrac > 0 {
		cSec, abort := sim.collectCost(e, st.CollectMB+st.CollectFrac*inputMB)
		sec += cSec
		if abort {
			out.aborted = true
		}
	}

	// Spurious executor loss: a long GC pause beyond the Akka failure
	// detector threshold makes the master declare the executor dead and
	// rerun its tasks.
	if !sim.Opt.DisableGC {
		occPause := e.heapMB / 1024 * 0.25 * gcOccupancy(e, st, totalIn/float64(tasks))
		if occPause > cfg.Get(conf.AkkaFailureDetector)*0.01 {
			sec *= 1.30
		}
	}

	out.sec = sec
	return out
}

func (e *env) slotsOr1() int {
	if e.slots < 1 {
		return 1
	}
	return e.slots
}

// wallShare converts a per-task time component into its expected
// wall-clock contribution: components execute tasks/slots deep on average.
func wallShare(tasks, slots int) float64 {
	if slots < 1 {
		slots = 1
	}
	return math.Ceil(float64(tasks)/float64(slots)) * 1.0
}

// slotHeap is a min-heap of slot-available times. It is driven directly by
// replaceMin rather than container/heap: the event loop only ever pops the
// minimum and pushes one finish time back, and the interface-based heap
// boxes every float64 it moves — one allocation per task event, which
// dominated the collecting hot loop's allocation profile.
type slotHeap []float64

// heapify orders h into a min-heap in O(len(h)), sifting each internal
// node down from the last one up.
func (h slotHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}

// replaceMin overwrites the minimum (the root) with v and restores heap
// order — the event loop's pop-then-push, fused.
func (h slotHeap) replaceMin(v float64) { h.siftDown(0, v) }

// siftDown places v at node i's position or below, moving smaller
// children up until v is no larger than either child.
func (h slotHeap) siftDown(i int, v float64) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if v <= h[m] {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = v
}

// scheduleTasksIn runs the list-scheduling event loop: each task goes to
// the earliest-free slot. It returns the stage makespan and the number of
// task launches (one per duration; speculative copies are accounted by the
// caller, which knows how many stragglers it replaced). The slot heap
// lives in the caller-provided scratch; nil allocates a fresh heap.
//
// Durations are non-negative, so with every slot free at time 0 the first
// min(slots, tasks) tasks each start at 0 on their own slot and finish at
// their duration. A stage that fits in one wave therefore spans its
// largest duration, with no heap at all; a longer stage starts its heap
// from the first wave's durations, heapified in O(slots) instead of
// sifted one by one into a heap of zeros. The loop then pops the same
// sequence of minima as a heap grown from zeros — a min-heap's root
// depends only on the multiset it holds — so the makespan is
// bit-identical.
func scheduleTasksIn(durs []float64, slots int, sc *runScratch) (span float64, launches int) {
	if slots < 1 {
		slots = 1
	}
	first := min(slots, len(durs))
	maxFin := 0.0
	for _, d := range durs[:first] {
		if d > maxFin {
			maxFin = d
		}
	}
	if first == len(durs) {
		return maxFin, len(durs)
	}
	var h slotHeap
	if sc != nil {
		h = sc.slotClock(slots)
	} else {
		h = make(slotHeap, slots)
	}
	copy(h, durs[:slots])
	h.heapify()
	for _, d := range durs[slots:] {
		fin := h[0] + d // the root is the earliest-free slot
		h.replaceMin(fin)
		if fin > maxFin {
			maxFin = fin
		}
	}
	return maxFin, len(durs)
}
