// Package search is the pluggable configuration-search layer. It
// defines the Searcher interface and name-keyed Registry every layer
// (core, CLI, daemon, experiments) selects searchers through, and
// provides the implementations: the alternative searchers the paper
// considers and rejects in §3.3 — recursive random search [56] and
// pattern search [46] — plus plain random sampling, simulated
// annealing, the paper's GA (adapted from internal/ga), and a
// from-scratch TPE Bayesian optimizer.
package search

import (
	"math"
	"math/rand"

	"repro/internal/conf"
	"repro/internal/ga"
)

// Objective scores a block of encoded configurations — ga.Objective,
// the module's one evaluation shape. Random and the population
// searchers fan disjoint blocks out over workers, so objectives must be
// safe for concurrent calls (model predictions are); the inherently
// sequential searchers (RecursiveRandom, Pattern, Anneal) score one-row
// blocks from a single goroutine.
type Objective = ga.Objective

// Result is a searcher's outcome — ga.Result, so every searcher reports
// the same shape the pipeline consumes.
type Result = ga.Result

// evalOne scores a single configuration as a one-row block.
func evalOne(obj Objective, x []float64) float64 {
	out := []float64{0}
	obj([][]float64{x}, out)
	return out[0]
}

// Random evaluates budget uniformly random configurations and keeps the
// best — the naive baseline every model-guided searcher must beat.
//
// The candidate stream is drawn serially (so it depends only on seed),
// scored in one block through ga.Evaluate (duplicate draws are scored
// once; chunks fan out over the default workers), and the winner is
// picked by a serial first-minimum scan — the result is bit-identical
// for any scheduling.
func Random(space *conf.Space, obj Objective, budget int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	res := Result{BestFitness: math.Inf(1)}
	if budget <= 0 {
		return res
	}
	X := make([][]float64, budget)
	for i := range X {
		X[i] = space.Random(rng).Vector()
	}
	fs := make([]float64, budget)
	res.Evaluations, res.CacheHits = ga.Evaluate(obj, nil, 0, X, fs)
	for i, f := range fs {
		if f < res.BestFitness {
			res.BestFitness = f
			res.Best = X[i]
		}
	}
	return res
}

// RecursiveRandom implements recursive random search: sample globally,
// then repeatedly re-sample inside a shrinking box around the incumbent,
// restarting globally when a region is exhausted. The paper notes its
// sensitivity to local optima — visible in the ablation bench.
func RecursiveRandom(space *conf.Space, obj Objective, budget int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	d := space.Len()
	res := Result{BestFitness: math.Inf(1)}

	const (
		exploreN = 20   // global samples per restart
		shrink   = 0.6  // box shrink factor on success
		minScale = 0.02 // region size that triggers a restart
	)
	for res.Evaluations < budget {
		// Global exploration phase.
		var center []float64
		local := math.Inf(1)
		for i := 0; i < exploreN && res.Evaluations < budget; i++ {
			x := space.Random(rng).Vector()
			f := evalOne(obj, x)
			res.Evaluations++
			if f < local {
				local, center = f, x
			}
			if f < res.BestFitness {
				res.BestFitness = f
				res.Best = append([]float64(nil), x...)
			}
		}
		if center == nil {
			break
		}
		// Local exploitation: shrink a box around the incumbent.
		scale := 0.5
		fails := 0
		for scale > minScale && res.Evaluations < budget {
			x := make([]float64, d)
			for j := 0; j < d; j++ {
				p := space.Param(j)
				span := p.Span() * scale
				x[j] = p.Clamp(center[j] + (rng.Float64()*2-1)*span)
			}
			f := evalOne(obj, x)
			res.Evaluations++
			if f < local {
				local, center = f, x
				scale *= shrink
				fails = 0
				if f < res.BestFitness {
					res.BestFitness = f
					res.Best = append([]float64(nil), x...)
				}
			} else if fails++; fails >= 8 {
				scale *= shrink
				fails = 0
			}
		}
	}
	return res
}

// Pattern implements coordinate pattern search (Hooke-Jeeves style): poll
// ± a step along each axis from the incumbent, halving the step on
// failure. Its slow local convergence on this space is the paper's reason
// to prefer GA.
func Pattern(space *conf.Space, obj Objective, budget int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	d := space.Len()
	x := space.Random(rng).Vector()
	fx := evalOne(obj, x)
	res := Result{Best: append([]float64(nil), x...), BestFitness: fx, Evaluations: 1}

	scale := 0.25
	for res.Evaluations < budget && scale > 0.001 {
		improved := false
		for j := 0; j < d && res.Evaluations < budget; j++ {
			p := space.Param(j)
			step := p.Span() * scale
			if p.Kind != conf.Float && step < 1 {
				step = 1
			}
			for _, dir := range []float64{+1, -1} {
				cand := append([]float64(nil), x...)
				cand[j] = p.Clamp(x[j] + dir*step)
				if cand[j] == x[j] {
					continue
				}
				f := evalOne(obj, cand)
				res.Evaluations++
				if f < fx {
					x, fx = cand, f
					improved = true
					break
				}
			}
		}
		if fx < res.BestFitness {
			res.BestFitness = fx
			res.Best = append([]float64(nil), x...)
		}
		if !improved {
			scale /= 2
		}
	}
	return res
}
