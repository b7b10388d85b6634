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
	"runtime"
	"sync"

	"repro/internal/conf"
	"repro/internal/obs"
)

// Objective maps an encoded configuration vector to the quantity being
// minimized. Random fans evaluations out over a worker pool, so objectives
// must be safe for concurrent calls (model predictions are); the
// inherently sequential searchers (RecursiveRandom, Pattern, Anneal) call
// it from a single goroutine.
type Objective func(x []float64) float64

// Result is a searcher's outcome.
type Result struct {
	Best        []float64
	BestFitness float64
	Evaluations int
	// History records the best fitness after each round (generation,
	// batch) for searchers that proceed in rounds; nil for the
	// single-sweep searchers.
	History []float64
	// CacheHits counts candidates a memoizing searcher replayed from
	// Options.Cache instead of evaluating.
	CacheHits int
}

// CountEvals wraps obj so every evaluation increments the named counter
// in reg ("search.<name>.evaluations"). With a nil registry the wrapper
// degenerates to a nil-counter increment, so it is always safe to apply.
func CountEvals(reg *obs.Registry, name string, obj Objective) Objective {
	c := reg.Counter("search." + name + ".evaluations")
	return func(x []float64) float64 {
		c.Inc()
		return obj(x)
	}
}

// track instruments obj when a registry was passed through a searcher's
// optional trailing argument.
func track(reg []*obs.Registry, name string, obj Objective) Objective {
	if len(reg) == 0 || reg[0] == nil {
		return obj
	}
	return CountEvals(reg[0], name, obj)
}

// Random evaluates budget uniformly random configurations and keeps the
// best — the naive baseline every model-guided searcher must beat. An
// optional registry counts its objective evaluations.
//
// The candidate stream is drawn serially (so it depends only on seed),
// evaluation fans out over GOMAXPROCS workers on disjoint chunks, and the
// winner is picked by a serial first-minimum scan — the result is
// bit-identical to the sequential loop for any scheduling.
func Random(space *conf.Space, obj Objective, budget int, seed int64, reg ...*obs.Registry) Result {
	obj = track(reg, "random", obj)
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
	if w := min(runtime.GOMAXPROCS(0), budget); w <= 1 {
		for i, x := range X {
			fs[i] = obj(x)
		}
	} else {
		var wg sync.WaitGroup
		for c := 0; c < w; c++ {
			lo, hi := c*budget/w, (c+1)*budget/w
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					fs[i] = obj(X[i])
				}
			}(lo, hi)
		}
		wg.Wait()
	}
	res.Evaluations = budget
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
func RecursiveRandom(space *conf.Space, obj Objective, budget int, seed int64, reg ...*obs.Registry) Result {
	obj = track(reg, "rrs", obj)
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
			f := obj(x)
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
			f := obj(x)
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
func Pattern(space *conf.Space, obj Objective, budget int, seed int64, reg ...*obs.Registry) Result {
	obj = track(reg, "pattern", obj)
	rng := rand.New(rand.NewSource(seed))
	d := space.Len()
	x := space.Random(rng).Vector()
	fx := obj(x)
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
				f := obj(cand)
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
