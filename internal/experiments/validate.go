package experiments

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// ValidateRow is one knob-flip cross-check between the real execution
// engine and the cost simulator: the same configuration change is applied
// to both, and the row records the *direction* of the effect in each.
type ValidateRow struct {
	Knob string
	// Counter names the engine.Metrics counter that explains the engine's
	// direction ("" for a knob with none); Before and After are its values
	// in one run of each configuration. Counters are deterministic where
	// wall-clock times are not.
	Counter       string
	Before, After int64
	// EngineRatio is time(after)/time(before) measured on the real
	// engine; SimRatio is the simulator's prediction for the analogous
	// cluster-scale change. Agree reports whether the two ratios fall on
	// the same side of 1; the engine ratio is wall-clock, so other load
	// on the host can flip it.
	EngineRatio float64
	SimRatio    float64
	Agree       bool
}

// Validate grounds the substitution argument of DESIGN.md §2: for knobs
// both systems implement — shuffle compression, task slots and shuffle
// memory — the laptop-scale engine and the cluster-scale simulator must
// move in the same direction when the knob flips. Absolute ratios differ
// (different scales, different hardware); the sign of the effect must
// not.
func Validate(sc Scale) []ValidateRow {
	// --- Real engine measurements (WordCount over ~8MB of text). -------
	var text bytes.Buffer
	if _, err := workloads.GenText(&text, 8<<20, 1); err != nil {
		panic(fmt.Sprintf("experiments: generating text: %v", err))
	}
	words := strings.Fields(text.String())
	wordCount := func(cfg engine.Config) engine.Metrics {
		ctx := engine.NewContext(cfg)
		defer ctx.Close()
		pairs := engine.MapToPairs(engine.Parallelize(ctx, words),
			func(w string) (string, int) { return w, 1 })
		counts, err := engine.ReduceByKey(pairs, func(a, b int) int { return a + b })
		if err != nil {
			panic(err)
		}
		if _, err := counts.Collect(); err != nil {
			panic(err)
		}
		return ctx.Metrics()
	}

	// --- Simulator predictions (WordCount at cluster scale). ------------
	sim := sparksim.New(sc.Cluster, sc.Seed)
	wc, _ := workloads.ByAbbr("WC")
	mb := wc.InputMB(120)
	simTime := func(mutate func(conf.Config)) float64 {
		cfg := conf.StandardSpace().Default().Set(conf.ExecutorMemory, 4096)
		if mutate != nil {
			mutate(cfg)
		}
		return sim.Run(&wc.Program, mb, cfg).TotalSec
	}

	rows := []ValidateRow{}

	// Knob 1: shuffle compression on a CPU-bound word count. Both
	// systems must agree on the direction (at this ratio of compute to
	// I/O it costs more CPU than the bytes it saves); the engine's
	// shuffle bytes show the trade.
	engCompress, off, on := engineRatio(wordCount,
		engine.Config{Parallelism: 8},
		engine.Config{Parallelism: 8, CompressShuffle: true})
	simOff := simTime(func(c conf.Config) { c.SetBool(conf.ShuffleCompress, false) })
	simOn := simTime(nil)
	rows = append(rows, mkRow("shuffle compression on", engCompress, simOn/simOff,
		"ShuffleBytesWritten", off.ShuffleBytesWritten, on.ShuffleBytesWritten))

	// Knob 2: more task slots (engine workers / executor cores) must
	// speed a CPU-bound job up in both systems. Slots beyond the host's
	// cores only time-share them, so the engine goes from one worker to
	// one per core (at least two). No engine counter tracks slots, so
	// the engine side is its timing alone.
	engSlots, _, _ := engineRatio(wordCount,
		engine.Config{Parallelism: 8, Workers: 1},
		engine.Config{Parallelism: 8, Workers: max(2, runtime.GOMAXPROCS(0))})
	simFew := simTime(func(c conf.Config) {
		c.Set(conf.ExecutorMemory, 8192)
		c.Set(conf.ExecutorCores, 2)
	})
	simMany := simTime(func(c conf.Config) {
		c.Set(conf.ExecutorMemory, 8192)
		c.Set(conf.ExecutorCores, 12)
	})
	rows = append(rows, mkRow("more task slots", engSlots, simMany/simFew, "", 0, 0))

	// Knob 3: starving the shuffle of memory (forcing spills) must slow
	// both systems down. Word count's combined shuffle is too small to
	// feel it, so this row sorts — the whole dataset crosses the shuffle.
	var tera bytes.Buffer
	if _, err := workloads.GenTeraRecords(&tera, 120_000, 2); err != nil {
		panic(err)
	}
	records := strings.Split(strings.TrimRight(tera.String(), "\n"), "\n")
	teraSort := func(cfg engine.Config) engine.Metrics {
		ctx := engine.NewContext(cfg)
		defer ctx.Close()
		pairs := engine.MapToPairs(engine.Parallelize(ctx, records),
			func(r string) (string, string) { return r[:10], r[10:] })
		sorted, err := engine.SortByKey(pairs, func(a, b string) bool { return a < b })
		if err != nil {
			panic(err)
		}
		if _, err := sorted.Collect(); err != nil {
			panic(err)
		}
		return ctx.Metrics()
	}
	ts, _ := workloads.ByAbbr("TS")
	tsTime := func(memMB float64) float64 {
		cfg := conf.StandardSpace().Default().
			Set(conf.ExecutorMemory, memMB).
			Set(conf.DefaultParallelism, 50)
		return sim.Run(&ts.Program, ts.InputMB(30), cfg).TotalSec
	}
	engStarved, fed, starved := engineRatio(teraSort,
		engine.Config{Parallelism: 8},
		engine.Config{Parallelism: 8, ShuffleMemoryMB: 1})
	simRatio := tsTime(1024) / tsTime(8192)
	rows = append(rows, mkRow("shuffle memory starved", engStarved, simRatio,
		"SpillBytes", fed.SpillBytes, starved.SpillBytes))

	return rows
}

// engineTrials is how many timed runs engineRatio makes per configuration.
const engineTrials = 5

// engineRatio runs job on the real engine under configurations a and b
// and returns time(b)/time(a) with the counters of the untimed first run
// of each. That run warms caches and the heap; the timed trials then
// alternate a and b so a drift in host load hits both alike, each starts
// from a collected heap so one run's garbage is not charged to the next,
// and each side keeps its fastest trial, since scheduler noise only ever
// adds time.
func engineRatio(job func(engine.Config) engine.Metrics, a, b engine.Config) (ratio float64, ma, mb engine.Metrics) {
	ma, mb = job(a), job(b)
	timed := func(cfg engine.Config) float64 {
		runtime.GC()
		start := time.Now()
		job(cfg)
		return time.Since(start).Seconds()
	}
	bestA, bestB := math.Inf(1), math.Inf(1)
	for k := 0; k < engineTrials; k++ {
		bestA = min(bestA, timed(a))
		bestB = min(bestB, timed(b))
	}
	return bestB / bestA, ma, mb
}

func mkRow(knob string, engRatio, simRatio float64, counter string, before, after int64) ValidateRow {
	return ValidateRow{
		Knob:        knob,
		Counter:     counter,
		Before:      before,
		After:       after,
		EngineRatio: engRatio,
		SimRatio:    simRatio,
		Agree:       (engRatio < 1) == (simRatio < 1),
	}
}

// RenderValidate prints the cross-check table.
func RenderValidate(rows []ValidateRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-20s %24s %14s %14s %8s\n",
		"knob flip", "engine counter", "before -> after", "engine ratio", "sim ratio", "agree")
	for _, r := range rows {
		counter, change := "-", "-"
		if r.Counter != "" {
			counter, change = r.Counter, fmt.Sprintf("%d -> %d", r.Before, r.After)
		}
		fmt.Fprintf(&b, "%-26s %-20s %24s %14.2f %14.2f %8v\n",
			r.Knob, counter, change, r.EngineRatio, r.SimRatio, r.Agree)
	}
	return b.String()
}
