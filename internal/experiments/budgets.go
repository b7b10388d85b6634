package experiments

import (
	"repro/internal/ga"
	"repro/internal/hm"
)

// Budget is one tuning-pipeline budget: how many vectors to collect and
// how hard to model and search. It lives next to Scale so the CLI and
// the daemon resolve the identical presets — the paper's settings and
// the smoke-test shrink are defined once, here, and cannot drift apart.
// (Scale sizes whole experiment sweeps; Budget sizes one tune.)
type Budget struct {
	// NTrain is the number of performance vectors to collect.
	NTrain int
	// HM configures the performance model.
	HM hm.Options
	// GA configures the searcher.
	GA ga.Options
}

// PaperBudget is the paper's tuning budget: ntrain 2000 (§5.1), 3600
// trees at lr 0.05 / tc 5 (§4.2), GA 100×100 (§3.3).
func PaperBudget() Budget {
	return Budget{
		NTrain: 2000,
		HM:     hm.Options{Trees: 3600, LearningRate: 0.05, TreeComplexity: 5},
		GA:     ga.Options{PopSize: 100, Generations: 100},
	}
}

// QuickBudget shrinks every knob for smoke tests: ntrain 200, hm's quick
// options (120 trees at lr 0.1), GA 20×10.
func QuickBudget() Budget {
	return Budget{
		NTrain: 200,
		HM:     hm.QuickOptions(),
		GA:     ga.Options{PopSize: 20, Generations: 10},
	}
}
