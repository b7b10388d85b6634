package ga

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/conf"
)

// sphere is a smooth objective whose optimum is each parameter's midpoint.
func sphere(space *conf.Space) func(x []float64) float64 {
	return func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			p := space.Param(i)
			mid := (p.Min + p.Max) / 2
			span := p.Span()
			if span == 0 {
				continue
			}
			d := (v - mid) / span
			s += d * d
		}
		return s
	}
}

func quickOpt() Options {
	return Options{PopSize: 40, Generations: 40, Seed: 1}
}

func TestMinimizeImprovesOverRandom(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	res := Minimize(space, Scalar(obj), nil, quickOpt())
	// Compare against the best of an equal number of random samples.
	rng := rand.New(rand.NewSource(2))
	bestRandom := math.Inf(1)
	for i := 0; i < res.Evaluations; i++ {
		if f := obj(space.Random(rng).Vector()); f < bestRandom {
			bestRandom = f
		}
	}
	if res.BestFitness >= bestRandom {
		t.Fatalf("GA best %.4f not better than random best %.4f at equal budget",
			res.BestFitness, bestRandom)
	}
}

func TestHistoryMonotone(t *testing.T) {
	space := conf.StandardSpace()
	res := Minimize(space, Scalar(sphere(space)), nil, quickOpt())
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-12 {
			t.Fatalf("best fitness worsened at generation %d: %v -> %v",
				i, res.History[i-1], res.History[i])
		}
	}
	if res.Converged < 1 || res.Converged > len(res.History) {
		t.Errorf("Converged = %d out of range", res.Converged)
	}
}

func TestBestIsLegal(t *testing.T) {
	space := conf.StandardSpace()
	res := Minimize(space, Scalar(sphere(space)), nil, quickOpt())
	if len(res.Best) != space.Len() {
		t.Fatalf("best vector has %d genes, want %d", len(res.Best), space.Len())
	}
	for i, v := range res.Best {
		p := space.Param(i)
		if v < p.Min || v > p.Max {
			t.Errorf("gene %d (%s) = %v outside [%v, %v]", i, p.Name, v, p.Min, p.Max)
		}
	}
}

func TestSeededPopulationUsed(t *testing.T) {
	space := conf.StandardSpace()
	// Seed the whole population with the known optimum; generation 0
	// must already find it.
	opt := quickOpt()
	optimum := make([]float64, space.Len())
	for i := 0; i < space.Len(); i++ {
		p := space.Param(i)
		optimum[i] = p.Clamp((p.Min + p.Max) / 2)
	}
	init := make([][]float64, opt.PopSize)
	for i := range init {
		init[i] = optimum
	}
	res := Minimize(space, Scalar(sphere(space)), init, opt)
	if res.BestFitness > sphere(space)(optimum)+1e-9 {
		t.Fatalf("seeded optimum lost: %v", res.BestFitness)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	space := conf.StandardSpace()
	a := Minimize(space, Scalar(sphere(space)), nil, quickOpt())
	b := Minimize(space, Scalar(sphere(space)), nil, quickOpt())
	if a.BestFitness != b.BestFitness {
		t.Fatal("same seed produced different results")
	}
	opt := quickOpt()
	opt.Seed = 99
	c := Minimize(space, Scalar(sphere(space)), nil, opt)
	if a.BestFitness == c.BestFitness && a.Evaluations == c.Evaluations {
		t.Log("different seeds landed on identical fitness (possible but unlikely)")
	}
}

func TestPatienceStopsEarly(t *testing.T) {
	space := conf.StandardSpace()
	opt := quickOpt()
	opt.Generations = 200
	opt.Patience = 3
	res := Minimize(space, Scalar(func(x []float64) float64 { return 1 }), nil, opt)
	if len(res.History) >= 200 {
		t.Fatalf("constant objective ran %d generations despite patience", len(res.History))
	}
}

func TestTournamentPicksBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fit := []float64{5, 1, 9, 3}
	counts := make([]int, len(fit))
	for i := 0; i < 2000; i++ {
		counts[tournament(fit, 3, rng)]++
	}
	if counts[1] <= counts[2] {
		t.Fatalf("best individual selected %d times, worst %d", counts[1], counts[2])
	}
}

func TestCrossoverPreservesGenePool(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c1, c2 := crossover(a, b, 1.0, rng)
	for i := range a {
		ok1 := c1[i] == a[i] || c1[i] == b[i]
		ok2 := c2[i] == a[i] || c2[i] == b[i]
		sum := c1[i] + c2[i]
		if !ok1 || !ok2 || sum != a[i]+b[i] {
			t.Fatalf("gene %d not a swap: %v %v", i, c1[i], c2[i])
		}
	}
	// Parents untouched.
	if a[0] != 1 || b[0] != 5 {
		t.Fatal("crossover mutated parents")
	}
}

func TestMutationRateRoughlyRespected(t *testing.T) {
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(5))
	changed := 0
	trials := 500
	for k := 0; k < trials; k++ {
		x := space.Default().Vector()
		orig := append([]float64(nil), x...)
		mutate(space, x, 0.01, rng)
		for i := range x {
			if x[i] != orig[i] {
				changed++
			}
		}
	}
	rate := float64(changed) / float64(trials*space.Len())
	// Re-drawing a discrete gene can land on the same value, so the
	// observed change rate is at most the mutation rate.
	if rate > 0.012 {
		t.Fatalf("observed mutation rate %.4f too high", rate)
	}
	if rate < 0.004 {
		t.Fatalf("observed mutation rate %.4f too low", rate)
	}
}

func TestBestK(t *testing.T) {
	fit := []float64{4, 1, 3, 2}
	idx := bestK(fit, 2)
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 3 {
		t.Fatalf("bestK = %v", idx)
	}
	if got := bestK(fit, 10); len(got) != 4 {
		t.Fatalf("bestK over-length = %v", got)
	}
}

// Property: the best fitness never exceeds any evaluated seed's fitness.
func TestBestNoWorseThanSeedsProperty(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	rng := rand.New(rand.NewSource(6))
	f := func(int64) bool {
		seed := space.Random(rng).Vector()
		opt := Options{PopSize: 10, Generations: 3, Seed: rng.Int63()}
		res := Minimize(space, Scalar(obj), [][]float64{seed}, opt)
		return res.BestFitness <= obj(seed)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
