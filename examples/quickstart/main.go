// Quickstart: tune TeraSort for a 30 GB input on the paper's simulated
// cluster and compare the tuned configuration against the Spark defaults
// and the expert rules.
//
// Run with:
//
//	go run ./examples/quickstart
//
// The example uses a reduced training budget so it finishes in a few
// seconds; pass -full for the paper-scale pipeline (2000 training runs,
// 3600 boosted trees).
package main

import (
	"flag"
	"fmt"
	"log"

	dac "repro"
)

func main() {
	full := flag.Bool("full", false, "use the paper-scale training budget")
	flag.Parse()

	w, err := dac.WorkloadByAbbr("TS")
	if err != nil {
		log.Fatal(err)
	}
	cl := dac.StandardCluster()

	opt := dac.Options{
		NTrain: 600,
		HM:     dac.HMOptions{Trees: 600, LearningRate: 0.05, TreeComplexity: 5},
		GA:     dac.GAOptions{PopSize: 60, Generations: 60},
		Seed:   1,
	}
	if *full {
		opt.NTrain = 2000
		opt.HM = dac.HMOptions{Trees: 3600, LearningRate: 0.05, TreeComplexity: 5}
		opt.GA = dac.GAOptions{PopSize: 100, Generations: 100}
	}

	tuner := dac.NewTuner(w, cl, opt)
	target := w.InputMB(30) // 30 GB
	lo, hi := w.TrainingRangeMB()

	fmt.Printf("Tuning %s for 30 GB on %d cores / %.0f GB...\n",
		w.Name, cl.TotalCores(), cl.TotalMemoryMB()/1024)
	res, err := tuner.Tune(lo, hi, []float64{target})
	if err != nil {
		log.Fatal(err)
	}
	best := res.Best[target]

	// Evaluate against the baselines with a fresh simulator seed (these
	// are new "runs", not the training executions).
	sim := dac.NewSimulator(cl, 99)
	space := dac.StandardSpace()
	tDAC := sim.Run(&w.Program, target, best).TotalSec
	tDef := sim.Run(&w.Program, target, space.Default()).TotalSec
	tExp := sim.Run(&w.Program, target, dac.ExpertConfig(space, cl)).TotalSec

	fmt.Printf("\n%-22s %10s %10s\n", "configuration", "time (s)", "speedup")
	fmt.Printf("%-22s %10.1f %10s\n", "Spark defaults", tDef, "1.0x")
	fmt.Printf("%-22s %10.1f %9.1fx\n", "expert (tuning guide)", tExp, tDef/tExp)
	fmt.Printf("%-22s %10.1f %9.1fx\n", "DAC", tDAC, tDef/tDAC)

	fmt.Printf("\nkey tuned parameters:\n")
	for _, name := range []string{
		"spark.executor.memory", "spark.executor.cores",
		"spark.default.parallelism", "spark.serializer",
		"spark.memory.fraction", "spark.shuffle.compress",
	} {
		i, _ := space.Index(name)
		p := space.Param(i)
		fmt.Printf("  %-28s %s (default %s)\n", name,
			p.FormatValue(best.Get(name)), p.FormatValue(p.Default))
	}
	fmt.Printf("\npipeline overhead: %.1f simulated cluster hours collecting, %.1fs modeling, %.1fs searching\n",
		res.Overhead.CollectClusterHours, res.Overhead.ModelTrainSec, res.Overhead.SearchSec)
}
