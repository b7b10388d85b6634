package search

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/ga"
	"repro/internal/obs"
)

func TestDefaultRegistryNames(t *testing.T) {
	want := []string{"anneal", "ga", "pattern", "random", "rrs", "tpe"}
	if got := Default().Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestRegistryLookupUnknown(t *testing.T) {
	_, err := Default().Lookup("simplex")
	if err == nil || !strings.Contains(err.Error(), "simplex") {
		t.Fatalf("Lookup(simplex) err = %v, want unknown-searcher error naming it", err)
	}
}

func TestNewRegistryRejectsBadNames(t *testing.T) {
	if _, err := NewRegistry(funcSearcher{"random", Random}, funcSearcher{"random", Random}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := NewRegistry(funcSearcher{"", Random}); err == nil {
		t.Error("empty name accepted")
	}
}

// TestAllRegisteredSearchersReturnLegalVectors extends the free-function
// legality test to the registry: every searcher reachable by name must
// return a full-length vector with every gene inside its parameter's
// range, and must report at least one real evaluation.
func TestAllRegisteredSearchersReturnLegalVectors(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	reg := Default()
	for _, name := range reg.Names() {
		s, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Search(space, obj, Options{Budget: 400, Seed: 2})
		if len(res.Best) != space.Len() {
			t.Errorf("%s: best has %d genes, want %d", name, len(res.Best), space.Len())
			continue
		}
		for i, v := range res.Best {
			p := space.Param(i)
			if v < p.Min || v > p.Max {
				t.Errorf("%s: gene %d (%s) = %v outside [%v, %v]", name, i, p.Name, v, p.Min, p.Max)
			}
		}
		if res.Evaluations <= 0 {
			t.Errorf("%s: %d evaluations", name, res.Evaluations)
		}
		if math.IsInf(res.BestFitness, 1) {
			t.Errorf("%s: no best found", name)
		}
	}
}

// TestRegisteredSearchersCountEvaluations checks every registered
// searcher reports its run under "search.<name>.evaluations", equal to
// the Result's Evaluations.
func TestRegisteredSearchersCountEvaluations(t *testing.T) {
	space := conf.StandardSpace()
	r := Default()
	for _, name := range r.Names() {
		s, _ := r.Lookup(name)
		reg := obs.NewRegistry()
		res := s.Search(space, sphere(space), Options{Budget: 120, Seed: 5, Obs: reg})
		got := reg.Counter("search." + name + ".evaluations").Value()
		if got != int64(res.Evaluations) || got == 0 {
			t.Errorf("%s: counter %d, Result.Evaluations %d", name, got, res.Evaluations)
		}
	}
}

// TestRegistryDeterministicAcrossGOMAXPROCS pins the Searcher contract:
// every registered searcher must return a bit-identical Result whether
// the process runs on one CPU or many.
func TestRegistryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	reg := Default()
	for _, name := range reg.Names() {
		s, _ := reg.Lookup(name)
		opt := Options{Budget: 400, Seed: 11}
		prev := runtime.GOMAXPROCS(1)
		one := s.Search(space, obj, opt)
		runtime.GOMAXPROCS(prev)
		many := s.Search(space, obj, opt)
		if !reflect.DeepEqual(one, many) {
			t.Errorf("%s: Result differs across GOMAXPROCS:\n 1: %+v\n n: %+v", name, one, many)
		}
	}
}

// TestGASearcherMatchesMinimize pins the seed-trajectory guarantee: the
// registered "ga" searcher at the equal-consideration budget GABudget
// implies must reproduce a direct ga.Minimize call exactly — same best
// vector, fitness, history, and evaluation count.
func TestGASearcherMatchesMinimize(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)

	gaOpt := ga.Options{PopSize: 30, Generations: 6, Seed: 4}
	direct := ga.Minimize(space, obj, nil, gaOpt)
	viaReg := GASearcher{Opt: ga.Options{PopSize: 30}}.Search(space, obj, Options{
		Budget: GABudget(gaOpt), // 30×7 = 210 → derives Generations = 6
		Seed:   4,
	})

	if !reflect.DeepEqual(viaReg.Best, direct.Best) {
		t.Error("best vector differs from ga.Minimize")
	}
	if viaReg.BestFitness != direct.BestFitness {
		t.Errorf("best fitness %v != %v", viaReg.BestFitness, direct.BestFitness)
	}
	if !reflect.DeepEqual(viaReg.History, direct.History) {
		t.Error("history differs from ga.Minimize")
	}
	if viaReg.Evaluations != direct.Evaluations {
		t.Errorf("evaluations %d != %d", viaReg.Evaluations, direct.Evaluations)
	}
}

func TestGABudgetDefaults(t *testing.T) {
	if got := GABudget(ga.Options{}); got != 100*101 {
		t.Errorf("GABudget(defaults) = %d, want 10100", got)
	}
	if got := GABudget(ga.Options{PopSize: 30, Generations: 6}); got != 210 {
		t.Errorf("GABudget(30×6) = %d, want 210", got)
	}
}

// TestTPEBeatsRandomAtEqualBudget is the statistical claim the optimizer
// exists for: at the same candidate budget, fitting densities to the
// history must beat blind sampling on a smooth objective — on average
// over seeds and on a clear majority of them.
func TestTPEBeatsRandomAtEqualBudget(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	const budget = 600
	wins, tpeSum, rndSum := 0, 0.0, 0.0
	seeds := []int64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		tpe := (&TPE{}).Search(space, obj, Options{Budget: budget, Seed: seed})
		rnd := Random(space, obj, budget, seed)
		if tpe.Evaluations > budget {
			t.Fatalf("seed %d: TPE overspent: %d > %d", seed, tpe.Evaluations, budget)
		}
		if tpe.BestFitness < rnd.BestFitness {
			wins++
		}
		tpeSum += tpe.BestFitness
		rndSum += rnd.BestFitness
	}
	if wins < 4 {
		t.Errorf("TPE beat random on %d of %d seeds, want >= 4", wins, len(seeds))
	}
	if tpeSum >= rndSum {
		t.Errorf("mean TPE fitness %.5f not below mean random %.5f", tpeSum/5, rndSum/5)
	}
}

func TestTPECountsEvaluations(t *testing.T) {
	space := conf.StandardSpace()
	reg := obs.NewRegistry()
	res := (&TPE{}).Search(space, sphere(space), Options{Budget: 200, Seed: 3, Obs: reg})
	if got := reg.Counter("search.tpe.evaluations").Value(); got != int64(res.Evaluations) {
		t.Errorf("counter %d != Result.Evaluations %d", got, res.Evaluations)
	}
	if res.Evaluations <= 0 || res.Evaluations > 200 {
		t.Errorf("evaluations = %d, want in (0, 200]", res.Evaluations)
	}
}

func TestTPEZeroBudget(t *testing.T) {
	space := conf.StandardSpace()
	res := (&TPE{}).Search(space, sphere(space), Options{Budget: 0, Seed: 1})
	if res.Evaluations != 0 || res.Best != nil || !math.IsInf(res.BestFitness, 1) {
		t.Fatalf("zero budget returned %d evals, best %v, fitness %v",
			res.Evaluations, res.Best, res.BestFitness)
	}
}

// TestTPEUsesInitSeeds checks the Init contract: a seeded known-good
// vector must be scored during startup, so the result can never be
// worse than the seed itself.
func TestTPEUsesInitSeeds(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	mids := make([]float64, space.Len())
	for i := 0; i < space.Len(); i++ {
		p := space.Param(i)
		mids[i] = p.Clamp((p.Min + p.Max) / 2)
	}
	res := (&TPE{}).Search(space, obj, Options{Budget: 60, Seed: 9, Init: [][]float64{mids}})
	if at := sphereAt(space)(mids); res.BestFitness > at+1e-12 {
		t.Errorf("best %.6f worse than the seeded vector's %.6f", res.BestFitness, at)
	}
}
