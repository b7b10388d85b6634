package search

import (
	"math"
	"math/rand"

	"repro/internal/conf"
)

// Anneal implements simulated annealing over the configuration space: a
// random walk that always accepts improvements and accepts regressions
// with probability exp(-Δ/T) under a geometric cooling schedule. It
// completes the ablation set around the paper's GA choice (§3.3): like
// recursive random search it escapes local optima stochastically, but with
// a tunable acceptance temperature rather than restarts.
func Anneal(space *conf.Space, obj Objective, budget int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	d := space.Len()

	cur := space.Random(rng).Vector()
	fCur := evalOne(obj, cur)
	res := Result{Best: append([]float64(nil), cur...), BestFitness: fCur, Evaluations: 1}

	// Temperature starts at the scale of early objective swings and
	// cools to ~1e-3 of it across the budget.
	t0 := math.Abs(fCur) + 1e-9
	cooling := math.Pow(1e-3, 1/math.Max(1, float64(budget)))
	temp := t0

	for res.Evaluations < budget {
		// Perturb 1-3 random genes within a shrinking neighbourhood.
		cand := append([]float64(nil), cur...)
		genes := 1 + rng.Intn(3)
		for g := 0; g < genes; g++ {
			j := rng.Intn(d)
			p := space.Param(j)
			span := p.Span() * (0.05 + 0.45*temp/t0)
			cand[j] = p.Clamp(cand[j] + (rng.Float64()*2-1)*span)
		}
		f := evalOne(obj, cand)
		res.Evaluations++
		if f < res.BestFitness {
			res.BestFitness = f
			res.Best = append([]float64(nil), cand...)
		}
		if f < fCur || rng.Float64() < math.Exp(-(f-fCur)/math.Max(1e-12, temp)) {
			cur, fCur = cand, f
		}
		temp *= cooling
	}
	return res
}
