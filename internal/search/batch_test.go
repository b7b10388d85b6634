package search

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/conf"
	"repro/internal/obs"
)

// TestRandomDeterministicAcrossGOMAXPROCS pins the parallel-evaluation
// contract: Random's result must be bit-identical whether its worker pool
// has one goroutine or many, and evaluation accounting must be exact.
func TestRandomDeterministicAcrossGOMAXPROCS(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)

	prev := runtime.GOMAXPROCS(1)
	one := Random(space, obj, 300, 11)
	runtime.GOMAXPROCS(prev)
	many := Random(space, obj, 300, 11)

	if one.BestFitness != many.BestFitness {
		t.Fatalf("best fitness differs: %v vs %v", one.BestFitness, many.BestFitness)
	}
	if !reflect.DeepEqual(one.Best, many.Best) {
		t.Fatal("best vector differs across GOMAXPROCS")
	}
	if one.Evaluations != 300 || many.Evaluations != 300 {
		t.Fatalf("evaluations %d / %d, want 300", one.Evaluations, many.Evaluations)
	}
}

// TestRandomCountsEvalsUnderParallelism checks the registered "random"
// searcher counts every evaluation its parallel chunks made.
func TestRandomCountsEvalsUnderParallelism(t *testing.T) {
	space := conf.StandardSpace()
	reg := obs.NewRegistry()
	s, err := Default().Lookup("random")
	if err != nil {
		t.Fatal(err)
	}
	s.Search(space, sphere(space), Options{Budget: 250, Seed: 3, Obs: reg})
	if got := reg.Counter("search.random.evaluations").Value(); got != 250 {
		t.Fatalf("counted %d evaluations, want 250", got)
	}
}

// TestRandomZeroBudget checks the degenerate call stays well-formed.
func TestRandomZeroBudget(t *testing.T) {
	space := conf.StandardSpace()
	res := Random(space, sphere(space), 0, 1)
	if res.Evaluations != 0 || res.Best != nil {
		t.Fatalf("zero budget returned %d evals, best %v", res.Evaluations, res.Best)
	}
}
