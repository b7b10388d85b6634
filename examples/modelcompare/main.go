// Model comparison: train the paper's five modeling techniques (response
// surface, neural network, SVR, random forest, Hierarchical Modeling) on
// the same collected data for one workload and report the Eq. 2 prediction
// error of each — the per-program view behind Figs. 3 and 9.
//
// Run with:
//
//	go run ./examples/modelcompare [-workload PR] [-n 1200]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	dac "repro"
)

func main() {
	abbr := flag.String("workload", "PR", "workload abbreviation (PR, KM, BA, NW, WC, TS)")
	n := flag.Int("n", 1200, "training vectors to collect")
	flag.Parse()

	w, err := dac.WorkloadByAbbr(*abbr)
	if err != nil {
		log.Fatal(err)
	}
	cl := dac.StandardCluster()
	sim := dac.NewSimulator(cl, 42)
	space := dac.StandardSpace()

	// Collect training and test sets the way the paper's collecting
	// component does: random configurations across ten dataset sizes.
	collect := func(count int, seed int64) *dac.Dataset {
		rng := rand.New(rand.NewSource(seed))
		set := dac.NewPerfSet(space)
		lo := w.Sizes[0] * 0.8
		hi := w.Sizes[len(w.Sizes)-1] * 1.1
		for i := 0; i < count; i++ {
			cfg := space.Random(rng)
			units := lo + rng.Float64()*(hi-lo)
			mb := w.InputMB(units)
			set.Add(cfg, mb, sim.Run(&w.Program, mb, cfg).TotalSec)
		}
		return set.ToDataset()
	}
	fmt.Printf("collecting %d training + %d test vectors for %s...\n", *n, *n/4, w.Name)
	train := collect(*n, 1)
	test := collect(*n/4, 2)

	fmt.Printf("\n%-5s %10s %10s %12s\n", "model", "mean err", "max err", "train time")
	// The paper's order (Fig. 9): RS, ANN, SVM, RF, HM, each with its
	// package defaults (zero Opt) and a zero TrainOpts.
	for _, b := range []dac.Backend{
		dac.RSBackend{}, dac.ANNBackend{}, dac.SVMBackend{}, dac.RFBackend{}, dac.HMBackend{},
	} {
		name := strings.ToUpper(b.Name())
		start := time.Now()
		m, err := b.Train(train, dac.TrainOpts{})
		if err != nil {
			fmt.Printf("%-5s failed: %v\n", name, err)
			continue
		}
		e := dac.Evaluate(m, test)
		fmt.Printf("%-5s %9.1f%% %9.1f%% %12v\n",
			name, e.Mean*100, e.Max*100, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\n(the paper's Fig. 9: HM averages 7.6% across programs; RS/ANN/SVM/RF 15-30%)")
}
