package search

import (
	"fmt"
	"sort"

	"repro/internal/conf"
	"repro/internal/ga"
	"repro/internal/obs"
)

// Options carries the budget and wiring a Searcher.Search call receives.
// Every field beyond Budget and Seed is optional: searchers that cannot
// use init seeds, worker fan-out, or a shared cache simply ignore them —
// the contract is that the result depends only on (space, objective
// values, Budget, Seed, Init), never on Workers or cache state.
type Options struct {
	// Budget bounds the search's candidate considerations: how many
	// configurations the searcher may score. Population searchers that
	// replay repeated genomes from a cache still count the replayed
	// candidates against Budget, so equal-Budget comparisons across
	// searchers stay fair; Result.Evaluations reports only real
	// objective calls.
	Budget int
	// Seed drives all of the searcher's randomness.
	Seed int64
	// Init optionally seeds the search with known-good vectors (the
	// paper seeds the GA population from the training set). Vectors are
	// clamped to the space; searchers without a seeding notion ignore
	// them.
	Init [][]float64
	// Workers bounds concurrent objective evaluation (0 = ga.Evaluate's
	// default, min(GOMAXPROCS, NumCPU)). The result is identical for any
	// value.
	Workers int
	// Obs, when non-nil, receives "search.<name>" spans and
	// "search.<name>.evaluations" counters. Recording never perturbs
	// the search.
	Obs *obs.Registry
}

// Searcher finds a configuration minimizing an objective over a space
// within an evaluation budget. Implementations must be deterministic in
// (space, objective values, Options.Budget, Seed, Init) — bit-identical
// results at any GOMAXPROCS or worker count — and must return legal
// vectors (every gene inside its parameter's range). Search must be safe
// for concurrent calls on one Searcher value: a tune searches each of its
// target sizes at once through the same searcher, so per-run state (RNG,
// memo, history) lives in the call, not the value. Every built-in
// searcher keeps its state that way.
type Searcher interface {
	// Name is the registry key ("ga", "tpe", "random", ...).
	Name() string
	// Search minimizes obj over space under opt's budget.
	Search(space *conf.Space, obj Objective, opt Options) Result
}

// Registry is an immutable name-keyed set of searchers, mirroring
// model.BackendRegistry: construct once with the searchers the binary
// supports, then look them up by the name a flag or JobSpec carries.
type Registry struct {
	byName map[string]Searcher
}

// NewRegistry builds a registry over the given searchers. Names must be
// unique and non-empty.
func NewRegistry(ss ...Searcher) (*Registry, error) {
	r := &Registry{byName: make(map[string]Searcher, len(ss))}
	for _, s := range ss {
		name := s.Name()
		if name == "" {
			return nil, fmt.Errorf("search: searcher with empty name")
		}
		if _, dup := r.byName[name]; dup {
			return nil, fmt.Errorf("search: duplicate searcher %q", name)
		}
		r.byName[name] = s
	}
	return r, nil
}

// Lookup returns the named searcher.
func (r *Registry) Lookup(name string) (Searcher, error) {
	s, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("search: unknown searcher %q (have %v)", name, r.Names())
	}
	return s, nil
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Default returns the registry of every built-in searcher: the paper's
// GA, the §3.3 ablation set (random, recursive random, pattern search,
// annealing), and the TPE Bayesian optimizer. A fresh registry per call,
// so callers can't perturb each other.
func Default() *Registry {
	r, err := NewRegistry(
		funcSearcher{"random", Random},
		funcSearcher{"rrs", RecursiveRandom},
		funcSearcher{"pattern", Pattern},
		funcSearcher{"anneal", Anneal},
		GASearcher{},
		&TPE{},
	)
	if err != nil {
		panic("search: invalid built-in registry: " + err.Error())
	}
	return r
}

// funcSearcher adapts the package's free searcher functions to the
// Searcher interface. The free functions take their whole budget as
// objective evaluations and ignore Init and Workers (Random
// parallelizes internally; the others are inherently sequential). Like
// GASearcher and TPE, it counts the run's Result.Evaluations under
// "search.<name>.evaluations".
type funcSearcher struct {
	name string
	fn   func(space *conf.Space, obj Objective, budget int, seed int64) Result
}

func (f funcSearcher) Name() string { return f.name }

func (f funcSearcher) Search(space *conf.Space, obj Objective, opt Options) Result {
	sp := opt.Obs.StartSpan("search." + f.name)
	defer sp.End()
	res := f.fn(space, obj, opt.Budget, opt.Seed)
	opt.Obs.Counter("search." + f.name + ".evaluations").Add(int64(res.Evaluations))
	return res
}

// GASearcher wraps ga.Minimize as a registered Searcher. Opt carries the
// GA hyperparameters (zero value = the paper's 100×100 setup); the
// per-call Options override its Seed, seeding, workers and
// registry, and Options.Budget derives Generations as
// Budget/PopSize − 1 when Generations is unset — the initial population
// plus each generation scores PopSize candidates, so a GA at PopSize p
// over g generations considers exactly p×(g+1) candidates. GABudget is
// the inverse mapping. With the budget derived that way, Search
// reproduces ga.Minimize's exact seed trajectory (pinned by test).
type GASearcher struct {
	Opt ga.Options
}

// Name implements Searcher.
func (GASearcher) Name() string { return "ga" }

// GABudget returns the candidate-consideration budget of a GA
// configured by opt: PopSize×(Generations+1) with ga's defaults
// (100×100) filled in. It is the equal-budget bridge between the GA's
// population/generation knobs and Options.Budget.
func GABudget(opt ga.Options) int {
	pop, gens := opt.PopSize, opt.Generations
	if pop <= 0 {
		pop = 100
	}
	if gens <= 0 {
		gens = 100
	}
	return pop * (gens + 1)
}

// Search implements Searcher.
func (g GASearcher) Search(space *conf.Space, obj Objective, opt Options) Result {
	sp := opt.Obs.StartSpan("search.ga")
	defer sp.End()
	gaOpt := g.Opt
	gaOpt.Seed = opt.Seed
	if gaOpt.Workers == 0 {
		gaOpt.Workers = opt.Workers
	}
	if gaOpt.Obs == nil {
		gaOpt.Obs = opt.Obs
	}
	if gaOpt.Generations <= 0 && opt.Budget > 0 {
		pop := gaOpt.PopSize
		if pop <= 0 {
			pop = 100
		}
		gens := opt.Budget/pop - 1
		if gens < 1 {
			gens = 1
		}
		gaOpt.Generations = gens
	}
	res := ga.Minimize(space, obj, opt.Init, gaOpt)
	opt.Obs.Counter("search.ga.evaluations").Add(int64(res.Evaluations))
	return res
}
