package search

import (
	"math"
	"testing"

	"repro/internal/conf"
	"repro/internal/ga"
)

// sphere has its optimum at each parameter's midpoint.
func sphere(space *conf.Space) Objective {
	return ga.Scalar(sphereAt(space))
}

// sphereAt is sphere's per-row form.
func sphereAt(space *conf.Space) func(x []float64) float64 {
	return func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			p := space.Param(i)
			span := p.Span()
			if span == 0 {
				continue
			}
			d := (v - (p.Min+p.Max)/2) / span
			s += d * d
		}
		return s
	}
}

func TestRandomRespectsBudget(t *testing.T) {
	space := conf.StandardSpace()
	res := Random(space, sphere(space), 100, 1)
	if res.Evaluations != 100 {
		t.Fatalf("Evaluations = %d, want 100", res.Evaluations)
	}
	if res.Best == nil || math.IsInf(res.BestFitness, 1) {
		t.Fatal("no best found")
	}
}

func TestRecursiveRandomBeatsPlainRandom(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	budget := 600
	rr := RecursiveRandom(space, obj, budget, 1)
	plain := Random(space, obj, budget, 1)
	if rr.Evaluations > budget {
		t.Fatalf("RRS overspent: %d > %d", rr.Evaluations, budget)
	}
	// On a smooth unimodal surface the local refinement must win.
	if rr.BestFitness >= plain.BestFitness {
		t.Fatalf("RRS %.5f not better than random %.5f on a smooth objective",
			rr.BestFitness, plain.BestFitness)
	}
}

func TestPatternConvergesOnSmoothObjective(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	res := Pattern(space, obj, 3000, 1)
	plain := Random(space, obj, 3000, 1)
	if res.BestFitness >= plain.BestFitness {
		t.Fatalf("pattern search %.5f not better than random %.5f",
			res.BestFitness, plain.BestFitness)
	}
}

func TestAnnealImprovesOverStart(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	res := Anneal(space, obj, 2000, 1)
	plain := Random(space, obj, 2000, 1)
	if res.BestFitness >= plain.BestFitness {
		t.Fatalf("annealing %.5f not better than random %.5f on a smooth objective",
			res.BestFitness, plain.BestFitness)
	}
	if res.Evaluations > 2000 {
		t.Fatalf("annealing overspent: %d", res.Evaluations)
	}
}

func TestAllSearchersReturnLegalVectors(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	for name, res := range map[string]Result{
		"random":  Random(space, obj, 50, 2),
		"rrs":     RecursiveRandom(space, obj, 50, 2),
		"pattern": Pattern(space, obj, 50, 2),
		"anneal":  Anneal(space, obj, 50, 2),
	} {
		if len(res.Best) != space.Len() {
			t.Errorf("%s: best has %d genes", name, len(res.Best))
			continue
		}
		for i, v := range res.Best {
			p := space.Param(i)
			if v < p.Min || v > p.Max {
				t.Errorf("%s: gene %d = %v outside range", name, i, v)
			}
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	if Random(space, obj, 40, 7).BestFitness != Random(space, obj, 40, 7).BestFitness {
		t.Error("Random differs across identical seeds")
	}
	if RecursiveRandom(space, obj, 40, 7).BestFitness != RecursiveRandom(space, obj, 40, 7).BestFitness {
		t.Error("RecursiveRandom differs across identical seeds")
	}
	if Pattern(space, obj, 40, 7).BestFitness != Pattern(space, obj, 40, 7).BestFitness {
		t.Error("Pattern differs across identical seeds")
	}
	if Anneal(space, obj, 40, 7).BestFitness != Anneal(space, obj, 40, 7).BestFitness {
		t.Error("Anneal differs across identical seeds")
	}
}
