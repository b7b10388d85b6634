// Package ga implements the genetic algorithm of §3.3 (Fig. 6), the
// searcher DAC uses to find the configuration minimizing a performance
// model's predicted execution time. GA is chosen over recursive random
// search and pattern search because it is robust against the many local
// optima of the high dimensional configuration space.
//
// Individuals are encoded configuration vectors. Each generation applies
// tournament selection, uniform crossover, and per-gene mutation at the
// paper's rate of 0.01, with elitism preserving the best individuals.
package ga

import (
	"math"
	"math/rand"

	"repro/internal/conf"
	"repro/internal/obs"
)

// Objective scores a block of encoded configuration vectors: out[i]
// receives the quantity being minimized for X[i] — for DAC, the
// model-predicted execution time in seconds. The block is the only
// evaluation shape: model-backed objectives score it with
// tree-at-a-time batch prediction, and Scalar adapts a per-row function.
// Objectives must be pure (the search memoizes and replays values for
// repeated individuals) and, when evaluation fans out (Workers != 1),
// safe for concurrent calls on disjoint blocks.
type Objective func(X [][]float64, out []float64)

// Scalar adapts a per-row function to an Objective, calling f once per
// row of the block.
func Scalar(f func(x []float64) float64) Objective {
	return func(X [][]float64, out []float64) {
		for i, x := range X {
			out[i] = f(x)
		}
	}
}

// Options are the GA hyperparameters. The zero value selects the paper's
// setup: population 100, 100 generations, mutation rate 0.01.
type Options struct {
	// PopSize is the population size (the paper's popSize).
	PopSize int
	// Generations is the iteration budget; Fig. 11 shows convergence by
	// 48–64 iterations across the six programs.
	Generations int
	// MutationRate is the per-gene mutation probability (Fig. 6: 0.01).
	MutationRate float64
	// CrossoverRate is the probability a pair is recombined rather than
	// copied.
	CrossoverRate float64
	// TournamentK is the tournament selection size.
	TournamentK int
	// Elite is the number of top individuals copied unchanged.
	Elite int
	// Patience stops the search after this many generations without
	// improvement; 0 disables early stopping.
	Patience int
	// Workers bounds concurrent objective evaluation (0 = min(GOMAXPROCS,
	// NumCPU), 1 = serial; see Evaluate). The search result is identical
	// for any value; with Workers != 1 the objective must be safe for
	// concurrent calls.
	Workers int
	// Seed drives all randomness.
	Seed int64
	// Obs, when non-nil, receives search metrics: runs, generations,
	// objective evaluations ("ga.*"), plus each run's best-so-far
	// trajectory as a run of the "ga.best" series. Recording never
	// perturbs the search.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.PopSize <= 0 {
		o.PopSize = 100
	}
	if o.Generations <= 0 {
		o.Generations = 100
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.01
	}
	if o.CrossoverRate <= 0 {
		o.CrossoverRate = 0.9
	}
	if o.TournamentK <= 0 {
		o.TournamentK = 3
	}
	if o.Elite <= 0 {
		o.Elite = 2
	}
	return o
}

// Result is the outcome of one search — the GA's, and every registered
// searcher's (search.Result is this type).
type Result struct {
	// Best is the best encoded configuration found.
	Best []float64
	// BestFitness is its objective value.
	BestFitness float64
	// History records the best fitness after each round (a GA
	// generation, a TPE batch) — the convergence curves of Fig. 11; nil
	// for the single-sweep searchers.
	History []float64
	// Evaluations counts the rows the objective scored (memoized replays
	// excluded).
	Evaluations int
	// CacheHits counts candidates served by the genome cache, or by an
	// earlier duplicate in the same block, instead of the objective.
	CacheHits int
	// Converged is the first round (1-based) whose best fitness is
	// within 0.5% of the final best — the convergence point plotted in
	// Fig. 11 — or 0 if the history is empty (see ConvergedAt).
	Converged int
}

// ConvergedAt returns the first round (1-based) of history whose best
// fitness is within 0.5% of best, measured as 0.005·|best| so that
// negative objectives converge like positive ones, plus a 1e-12 floor;
// 0 if history is empty. It is the one Converged rule every searcher
// with a round history reports.
func ConvergedAt(history []float64, best float64) int {
	limit := best * 1.005
	if best < 0 {
		limit = best * 0.995
	}
	limit += 1e-12
	for g, v := range history {
		if v <= limit {
			return g + 1
		}
	}
	return 0
}

// Minimize searches space for the configuration minimizing obj. init
// optionally seeds the population with existing vectors (the paper seeds
// popSize vectors drawn from the training set); the remainder is random.
func Minimize(space *conf.Space, obj Objective, init [][]float64, opt Options) Result {
	// Genome memoization: fitness keyed on the exact gene bits of the
	// last evaluated population, so elites and children equal to a
	// parent never reach the objective again. Older generations are
	// forgotten — a genome that skips a generation is rescored, which
	// the pure objective answers identically — so the memo holds at
	// most PopSize entries however long the run. The two maps swap
	// roles each generation and keep their buckets.
	memo, spare := GenomeCache{}, GenomeCache{}
	return minimize(space, init, opt, func(pop [][]float64, fit []float64) (evaluated, hits int) {
		clear(spare)
		evaluated, hits = evaluateInto(obj, memo, spare, opt.Workers, pop, fit)
		memo, spare = spare, memo
		return evaluated, hits
	})
}

// minimize is the GA loop over a population scorer: score writes each
// individual's fitness into fit and returns how many rows the objective
// scored and how many were replayed.
func minimize(space *conf.Space, init [][]float64, opt Options, score func(pop [][]float64, fit []float64) (evaluated, hits int)) Result {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	d := space.Len()

	pop := make([][]float64, opt.PopSize)
	for i := range pop {
		if i < len(init) && len(init[i]) == d {
			pop[i] = clampVec(space, init[i])
		} else {
			pop[i] = space.Random(rng).Vector()
		}
	}

	opt.Obs.Counter("ga.runs").Inc()
	evals := opt.Obs.Counter("ga.evaluations")
	gens := opt.Obs.Counter("ga.generations")

	res := Result{BestFitness: math.Inf(1)}
	fit := make([]float64, opt.PopSize)

	// evaluate scores the population, then scans it serially in
	// population order, so the best-individual tie-breaking is the same
	// at any worker count or memo state.
	evaluate := func() {
		n, hits := score(pop, fit)
		res.Evaluations += n
		res.CacheHits += hits
		evals.Add(int64(n))
		for i, v := range fit {
			if v < res.BestFitness {
				res.BestFitness = v
				res.Best = append([]float64(nil), pop[i]...)
			}
		}
	}
	evaluate()

	sinceBest := 0
	for gen := 0; gen < opt.Generations; gen++ {
		gens.Inc()
		next := make([][]float64, 0, opt.PopSize)
		// Elitism.
		for _, i := range bestK(fit, opt.Elite) {
			next = append(next, append([]float64(nil), pop[i]...))
		}
		for len(next) < opt.PopSize {
			a := pop[tournament(fit, opt.TournamentK, rng)]
			b := pop[tournament(fit, opt.TournamentK, rng)]
			c1, c2 := crossover(a, b, opt.CrossoverRate, rng)
			mutate(space, c1, opt.MutationRate, rng)
			mutate(space, c2, opt.MutationRate, rng)
			next = append(next, c1)
			if len(next) < opt.PopSize {
				next = append(next, c2)
			}
		}
		pop = next
		prevBest := res.BestFitness
		evaluate()
		res.History = append(res.History, res.BestFitness)
		if res.BestFitness < prevBest-1e-12 {
			sinceBest = 0
		} else {
			sinceBest++
			if opt.Patience > 0 && sinceBest >= opt.Patience {
				break
			}
		}
	}
	res.Converged = ConvergedAt(res.History, res.BestFitness)
	opt.Obs.Series("ga.best").AddRun(res.History)
	return res
}

// tournament returns the index of the best of k random individuals.
func tournament(fit []float64, k int, rng *rand.Rand) int {
	best := rng.Intn(len(fit))
	for i := 1; i < k; i++ {
		c := rng.Intn(len(fit))
		if fit[c] < fit[best] {
			best = c
		}
	}
	return best
}

// crossover performs uniform crossover with probability rate; otherwise
// the parents are copied unchanged.
func crossover(a, b []float64, rate float64, rng *rand.Rand) ([]float64, []float64) {
	c1 := append([]float64(nil), a...)
	c2 := append([]float64(nil), b...)
	if rng.Float64() < rate {
		for i := range c1 {
			if rng.Float64() < 0.5 {
				c1[i], c2[i] = c2[i], c1[i]
			}
		}
	}
	return c1, c2
}

// mutate resamples each gene with the configured probability.
func mutate(space *conf.Space, x []float64, rate float64, rng *rand.Rand) {
	for i := range x {
		if rng.Float64() < rate {
			x[i] = space.Param(i).Random(rng)
		}
	}
}

// bestK returns the indices of the k smallest fitness values.
func bestK(fit []float64, k int) []int {
	if k > len(fit) {
		k = len(fit)
	}
	idx := make([]int, 0, k)
	for c := 0; c < k; c++ {
		best := -1
		for i, f := range fit {
			if contains(idx, i) {
				continue
			}
			if best < 0 || f < fit[best] {
				best = i
			}
		}
		idx = append(idx, best)
	}
	return idx
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func clampVec(space *conf.Space, x []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = space.Param(i).Clamp(x[i])
	}
	return out
}
