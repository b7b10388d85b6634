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
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/conf"
	"repro/internal/obs"
)

// Objective maps an encoded configuration vector to the quantity being
// minimized — for DAC, the model-predicted execution time in seconds.
// Objectives must be pure: the search memoizes and replays values for
// repeated individuals.
type Objective func(x []float64) float64

// BatchObjective scores a whole block of configurations in one call:
// out[i] receives the objective of X[i]. Model-backed objectives
// implement it with tree-at-a-time batch prediction, which is the GA hot
// path's fast lane. Implementations must be pure, agree with the per-row
// Objective they accompany, and be safe for concurrent calls on disjoint
// blocks.
type BatchObjective func(X [][]float64, out []float64)

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
	// BatchObj, when non-nil, replaces per-row calls of the Objective
	// passed to Minimize for whole-population scoring (the Objective may
	// then be nil).
	BatchObj BatchObjective
	// Workers bounds concurrent objective evaluation (0 = GOMAXPROCS,
	// 1 = serial). The search result is identical for any value; with
	// Workers != 1 the objective must be safe for concurrent calls.
	Workers int
	// Cache, when non-nil, replaces the run-private genome memo cache
	// with a shared one, letting repeated searches of the same objective
	// (the daemon's idempotent search traffic) replay each other's
	// evaluations. The cache is sharded by genome hash, so concurrent
	// Minimize calls sharing it do not contend on one map. Callers must
	// only share a cache between searches whose objectives are identical
	// — the key is the genome alone. The search result is identical with
	// or without sharing; only Evaluations and CacheHits shift (replays
	// replace objective calls, counted exactly).
	Cache *GenomeCache
	// Seed drives all randomness.
	Seed int64
	// Obs, when non-nil, receives search metrics: runs, generations,
	// objective evaluations ("ga.*"), plus each run's best-so-far
	// trajectory as a run of the "ga.best" series. Recording never
	// perturbs the search.
	Obs *obs.Registry
}

// workers resolves the effective evaluation parallelism. The default is
// capped at NumCPU as well as GOMAXPROCS: splitting a CPU-bound batch
// across more goroutines than physical CPUs (a common state in
// CPU-quota containers where GOMAXPROCS exceeds the quota) only
// interleaves the chunks' cache footprints. The search result is
// identical for any worker count, so the cap is purely a speed matter.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < w {
		w = n
	}
	return w
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

// Result is the outcome of one GA run.
type Result struct {
	// Best is the best encoded configuration found.
	Best []float64
	// BestFitness is its objective value.
	BestFitness float64
	// History records the best fitness after each generation — the
	// convergence curves of Fig. 11.
	History []float64
	// Evaluations counts objective calls (memoized replays excluded).
	Evaluations int
	// CacheHits counts fitness lookups served by the genome cache instead
	// of an objective call.
	CacheHits int
	// Converged is the first generation (1-based) whose best fitness is
	// within 0.5% of the final best — the convergence point plotted in
	// Fig. 11 — or 0 if the history is empty.
	Converged int
}

// Minimize searches space for the configuration minimizing obj. init
// optionally seeds the population with existing vectors (the paper seeds
// popSize vectors drawn from the training set); the remainder is random.
func Minimize(space *conf.Space, obj Objective, init [][]float64, opt Options) Result {
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

	// Genome memoization: fitness keyed on the exact gene bits, so
	// repeated individuals (elites, duplicate children late in a
	// converged run) never reach the objective again. The cache is the
	// sharded kind either way; a run-private one simply never contends.
	cache := opt.Cache
	if cache == nil {
		cache = NewGenomeCache()
	}
	keyBuf := make([]byte, 0, 8*d)
	keyOf := func(x []float64) string {
		keyBuf = keyBuf[:0]
		for _, v := range x {
			keyBuf = binary.LittleEndian.AppendUint64(keyBuf, math.Float64bits(v))
		}
		return string(keyBuf)
	}

	// evaluate scores the population: cache lookups first, then one pass
	// over the unique unseen genomes — batched and fanned out across
	// workers — and finally a serial scan in population order, so the
	// best-individual tie-breaking matches the reference implementation
	// bit for bit regardless of worker count or cache state.
	evaluate := func() {
		var X [][]float64
		var keys []string
		var rows [][]int
		batch := make(map[string]int, len(pop))
		for i, x := range pop {
			k := keyOf(x)
			if v, ok := cache.Lookup(k); ok {
				fit[i] = v
				res.CacheHits++
				continue
			}
			if j, ok := batch[k]; ok {
				rows[j] = append(rows[j], i)
				res.CacheHits++
				continue
			}
			batch[k] = len(X)
			X = append(X, x)
			keys = append(keys, k)
			rows = append(rows, []int{i})
		}
		m := len(X)
		vals := make([]float64, m)
		if w := min(opt.workers(), m); w <= 1 {
			if opt.BatchObj != nil {
				opt.BatchObj(X, vals)
			} else {
				for j, x := range X {
					vals[j] = obj(x)
				}
			}
		} else {
			var wg sync.WaitGroup
			for c := 0; c < w; c++ {
				lo, hi := c*m/w, (c+1)*m/w
				if lo == hi {
					continue
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					if opt.BatchObj != nil {
						opt.BatchObj(X[lo:hi], vals[lo:hi])
					} else {
						for j := lo; j < hi; j++ {
							vals[j] = obj(X[j])
						}
					}
				}(lo, hi)
			}
			wg.Wait()
		}
		res.Evaluations += m
		evals.Add(int64(m))
		for j, v := range vals {
			cache.Store(keys[j], v)
			for _, i := range rows[j] {
				fit[i] = v
			}
		}
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
	for g, v := range res.History {
		if v <= res.BestFitness*1.005+1e-12 {
			res.Converged = g + 1
			break
		}
	}
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
