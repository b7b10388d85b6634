package ga

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/conf"
)

// batchSphere is the BatchObjective form of sphere.
func batchSphere(space *conf.Space) BatchObjective {
	obj := sphere(space)
	return func(X [][]float64, out []float64) {
		for i, x := range X {
			out[i] = obj(x)
		}
	}
}

// sameSearch asserts two results agree on everything the tuner consumes:
// best configuration, fitness, convergence history.
func sameSearch(t *testing.T, label string, ref, got Result) {
	t.Helper()
	if !reflect.DeepEqual(ref.Best, got.Best) {
		t.Fatalf("%s: best config differs", label)
	}
	if ref.BestFitness != got.BestFitness {
		t.Fatalf("%s: best fitness %v vs %v", label, ref.BestFitness, got.BestFitness)
	}
	if !reflect.DeepEqual(ref.History, got.History) {
		t.Fatalf("%s: history differs", label)
	}
	if ref.Converged != got.Converged {
		t.Fatalf("%s: converged %d vs %d", label, ref.Converged, got.Converged)
	}
}

// TestEvaluationModesEquivalent pins the evaluation contract:
// worker-pool evaluation, a caller-supplied cache, and the batch
// objective must each leave the search result bit-identical to the
// serial reference (Workers=1, run-private cache), for several seeds.
// Every genome of every generation is scored exactly once, by the
// objective or by the cache.
func TestEvaluationModesEquivalent(t *testing.T) {
	space := conf.StandardSpace()
	for _, seed := range []int64{1, 7, 42} {
		base := Options{PopSize: 30, Generations: 30, Seed: seed}
		const scored = 30 * 31
		refOpt := base
		refOpt.Workers = 1
		ref := Minimize(space, sphere(space), nil, refOpt)
		// Every mode below memoizes, so check the reference's answer
		// against the objective itself.
		if f := sphere(space)(ref.Best); f != ref.BestFitness {
			t.Fatalf("seed %d: best fitness %v, objective at best %v", seed, ref.BestFitness, f)
		}

		for _, tc := range []struct {
			label string
			mut   func(*Options)
		}{
			{"reference", func(o *Options) { o.Workers = 1 }},
			{"workers=2", func(o *Options) { o.Workers = 2 }},
			{"workers=gomaxprocs", func(o *Options) {}},
			{"shared-cache", func(o *Options) { o.Workers = 1; o.Cache = NewGenomeCache() }},
			{"batchobj", func(o *Options) { o.Workers = 1; o.BatchObj = batchSphere(space) }},
			{"batchobj+workers", func(o *Options) { o.BatchObj = batchSphere(space) }},
		} {
			opt := base
			tc.mut(&opt)
			got := Minimize(space, sphere(space), nil, opt)
			sameSearch(t, tc.label, ref, got)
			if got.Evaluations+got.CacheHits != scored {
				t.Fatalf("%s seed %d: evals %d + hits %d != %d",
					tc.label, seed, got.Evaluations, got.CacheHits, scored)
			}
			if got.Evaluations != ref.Evaluations {
				t.Fatalf("%s seed %d: %d evaluations, reference made %d",
					tc.label, seed, got.Evaluations, ref.Evaluations)
			}
			if got.CacheHits == 0 {
				t.Fatalf("%s seed %d: cache never hit (elites alone guarantee hits)", tc.label, seed)
			}
		}
	}
}

// TestSearchDeterministicAcrossGOMAXPROCS checks the default (parallel,
// cached) search is scheduling-independent, not just worker-count
// independent.
func TestSearchDeterministicAcrossGOMAXPROCS(t *testing.T) {
	space := conf.StandardSpace()
	opt := Options{PopSize: 25, Generations: 25, Seed: 3}

	prev := runtime.GOMAXPROCS(1)
	one := Minimize(space, sphere(space), nil, opt)
	runtime.GOMAXPROCS(prev)
	many := Minimize(space, sphere(space), nil, opt)
	sameSearch(t, "gomaxprocs", one, many)
	if one.Evaluations != many.Evaluations || one.CacheHits != many.CacheHits {
		t.Fatalf("eval accounting differs: %d/%d vs %d/%d",
			one.Evaluations, one.CacheHits, many.Evaluations, many.CacheHits)
	}
}

// TestCacheKeyExactBits checks the memo key distinguishes genomes that
// differ in any bit (no quantization, no collisions on close values).
func TestCacheKeyExactBits(t *testing.T) {
	space := conf.StandardSpace()
	calls := 0
	obj := func(x []float64) float64 {
		calls++
		s := 0.0
		for _, v := range x {
			s += v
		}
		return s
	}
	opt := Options{PopSize: 4, Generations: 1, Seed: 11, Workers: 1, MutationRate: 1e-12}
	res := Minimize(space, obj, nil, opt)
	if res.Evaluations != calls {
		t.Fatalf("Evaluations=%d but objective ran %d times", res.Evaluations, calls)
	}
	if math.IsInf(res.BestFitness, 0) {
		t.Fatal("no best recorded")
	}
}
