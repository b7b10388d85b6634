package search

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/conf"
	"repro/internal/ga"
)

// TPE is a from-scratch tree-structured Parzen estimator — the Bayesian
// optimizer LOCAT and OnlineTune tune Spark with, here over the mixed
// int/float/bool/enum space of internal/conf. Instead of modeling
// p(y|x) like a GP, TPE models two densities over configurations: l(x)
// from the best γ-quantile of observations and g(x) from the rest, and
// proposes the candidate maximizing the expected-improvement ratio
// l(x)/g(x) (Bergstra et al. 2011, Eq. 15 — the EI-optimal acquisition
// reduces to the density ratio).
//
// Each density factorizes into per-parameter 1-D Parzen estimators
// chosen by parameter shape:
//
//   - Bool, Enum, and narrow Int parameters (≤ 17 values): a
//     Dirichlet-smoothed categorical (add-one prior), so unseen values
//     keep non-zero proposal mass.
//   - Wide positive Int parameters spanning ≥ 2 decades (partition
//     counts, buffer sizes): Gaussian kernels in log space, matching
//     the multiplicative way such knobs act.
//   - Everything else: Gaussian kernels in linear space with bandwidth
//     span/√n floored at 5% of the span, plus one uniform prior kernel
//     so the proposal never collapses onto the observations.
//
// Rounds draw Candidates configurations from l, rank them by
// Σ log l − log g, and evaluate the top BatchSize through the shared
// memoized evaluator (ga.Evaluate over ga.GenomeCache). All randomness
// is drawn serially from one seeded source and evaluation merges are
// order-deterministic, so results are bit-identical at any GOMAXPROCS or
// worker count. The zero value is ready to use.
type TPE struct {
	// Gamma is the quantile split: the best ⌈γ·n⌉ observations form the
	// "good" density l(x). 0 selects the default 0.25.
	Gamma float64
	// Startup is how many observations (Options.Init first, then uniform
	// random) are collected before density modeling begins. 0 selects
	// the default 20.
	Startup int
	// Candidates is how many proposals are drawn from l(x) per round
	// before EI-ratio ranking. 0 selects the default 3×BatchSize.
	Candidates int
	// BatchSize is how many top-ranked candidates are evaluated per
	// round. 0 selects the default max(8, Budget/64) — batches scale
	// with the budget so a paper-budget run refits the densities ~64
	// times instead of once per candidate.
	BatchSize int
}

// Name implements Searcher.
func (*TPE) Name() string { return "tpe" }

// maxGood caps the good-density observation count: past a few dozen
// kernels the l density stops sharpening and sampling just slows down.
const maxGood = 25

// maxBad caps the bad-density kernel count. The bad set otherwise grows
// with the whole observation history, and g(x) evaluation is linear in
// its kernels — an evenly-strided fitness subsample keeps the density's
// shape at constant cost.
const maxBad = 100

// Search implements Searcher. Options.Budget counts candidate
// considerations: startup draws and every ranked candidate selected for
// a round consume budget whether the cache replays them or not, so a
// TPE run and a GA run at equal Budget consider equally many
// configurations.
func (t *TPE) Search(space *conf.Space, obj Objective, opt Options) Result {
	span := opt.Obs.StartSpan("search.tpe")
	defer span.End()

	gamma := t.Gamma
	if gamma <= 0 || gamma >= 1 {
		gamma = 0.25
	}
	startup := t.Startup
	if startup <= 0 {
		startup = 20
	}
	batch := t.BatchSize
	if batch <= 0 {
		batch = max(8, opt.Budget/64)
	}
	cands := t.Candidates
	if cands <= 0 {
		cands = 3 * batch
	}

	res := Result{BestFitness: math.Inf(1)}
	if opt.Budget <= 0 {
		return res
	}
	defer func() {
		opt.Obs.Counter("search.tpe.evaluations").Add(int64(res.Evaluations))
	}()

	rng := rand.New(rand.NewSource(opt.Seed))
	d := space.Len()

	cache := ga.GenomeCache{}

	// The observation history the densities are fit to.
	xs := make([][]float64, 0, opt.Budget)
	ys := make([]float64, 0, opt.Budget)

	// evalBatch scores a block of candidates through the shared
	// evaluator, then appends them to the history in candidate order —
	// so the best-so-far tie-breaking is identical at any worker count.
	evalBatch := func(X [][]float64) {
		fitX := make([]float64, len(X))
		n, hits := ga.Evaluate(obj, cache, opt.Workers, X, fitX)
		res.Evaluations += n
		res.CacheHits += hits
		for i, v := range fitX {
			xs = append(xs, X[i])
			ys = append(ys, v)
			if v < res.BestFitness {
				res.BestFitness = v
				res.Best = append(res.Best[:0], X[i]...)
			}
		}
	}

	// Startup: seed vectors first, uniform random for the rest.
	n0 := min(startup, opt.Budget)
	X0 := make([][]float64, 0, n0)
	for _, v := range opt.Init {
		if len(X0) == n0 {
			break
		}
		if len(v) != d {
			continue
		}
		x := make([]float64, d)
		for i := range v {
			x[i] = space.Param(i).Clamp(v[i])
		}
		X0 = append(X0, x)
	}
	for len(X0) < n0 {
		x := make([]float64, d)
		space.SampleInto(x, rng)
		X0 = append(X0, x)
	}
	evalBatch(X0)
	spent := n0
	res.History = append(res.History, res.BestFitness)

	order := make([]int, 0, opt.Budget)
	for spent < opt.Budget {
		// Split observations into good (best ⌈γ·n⌉, capped) and bad by
		// fitness, ties broken by observation order.
		n := len(ys)
		order = order[:0]
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		sort.SliceStable(order, func(a, b int) bool { return ys[order[a]] < ys[order[b]] })
		nGood := int(math.Ceil(gamma * float64(n)))
		if nGood < 1 {
			nGood = 1
		}
		if nGood > maxGood {
			nGood = maxGood
		}

		// The bad side would otherwise grow with the whole history; an
		// evenly-strided subsample over the fitness ordering keeps its
		// spread (near-good through worst) at bounded kernel count.
		bad := order[nGood:]
		if len(bad) > maxBad {
			strided := make([]int, maxBad)
			for j := 0; j < maxBad; j++ {
				strided[j] = bad[j*(len(bad)-1)/(maxBad-1)]
			}
			bad = strided
		}

		// Per-parameter Parzen estimators for both densities.
		lK := make([]parzen, d)
		gK := make([]parzen, d)
		vbuf := make([]float64, 0, n)
		for i := 0; i < d; i++ {
			p := space.Param(i)
			vbuf = vbuf[:0]
			for _, oi := range order[:nGood] {
				vbuf = append(vbuf, xs[oi][i])
			}
			lK[i] = newParzen(p, vbuf)
			vbuf = vbuf[:0]
			for _, oi := range bad {
				vbuf = append(vbuf, xs[oi][i])
			}
			gK[i] = newParzen(p, vbuf)
		}

		// Draw candidates from l and rank by the EI ratio.
		C := make([][]float64, cands)
		scores := make([]float64, cands)
		for c := range C {
			x := make([]float64, d)
			s := 0.0
			for i := 0; i < d; i++ {
				v := lK[i].sample(rng)
				x[i] = v
				s += lK[i].logDensity(v) - gK[i].logDensity(v)
			}
			C[c] = x
			scores[c] = s
		}
		rank := make([]int, cands)
		for i := range rank {
			rank[i] = i
		}
		sort.SliceStable(rank, func(a, b int) bool { return scores[rank[a]] > scores[rank[b]] })

		take := min(batch, min(cands, opt.Budget-spent))
		sel := make([][]float64, take)
		for j := 0; j < take; j++ {
			sel[j] = C[rank[j]]
		}
		evalBatch(sel)
		spent += take
		res.History = append(res.History, res.BestFitness)
	}
	res.Converged = ga.ConvergedAt(res.History, res.BestFitness)
	return res
}

// parzen is a 1-D density over one parameter's encoded values,
// supporting ancestral sampling and log-density evaluation.
type parzen interface {
	sample(rng *rand.Rand) float64
	logDensity(v float64) float64
}

// newParzen fits the kernel shape matching the parameter to the observed
// values (which may be empty — the estimator degrades to its prior).
func newParzen(p *conf.Param, vals []float64) parzen {
	if isCategorical(p) {
		return newCatParzen(p, vals)
	}
	return newNumParzen(p, vals, isLogScale(p))
}

// isCategorical reports whether the parameter's values are few enough to
// model as a smoothed histogram: Bool, Enum, and Int spanning ≤ 17
// distinct values.
func isCategorical(p *conf.Param) bool {
	if p.Kind == conf.Bool || p.Kind == conf.Enum {
		return true
	}
	return p.Kind == conf.Int && p.Span() <= 16
}

// isLogScale reports whether a wide positive Int parameter should be
// modeled in log space: at least two decades of multiplicative range.
func isLogScale(p *conf.Param) bool {
	return p.Kind == conf.Int && p.Min >= 1 && p.Max >= 100*p.Min
}

// catParzen is a Dirichlet-smoothed categorical over the discrete values
// Min..Max: probability (count+1)/(n+K), so unseen values keep mass.
type catParzen struct {
	min  float64
	logw []float64
	cum  []float64
}

func newCatParzen(p *conf.Param, vals []float64) *catParzen {
	k := int(p.Span()) + 1
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
	}
	total := float64(k)
	for _, v := range vals {
		i := int(math.Round(v - p.Min))
		if i < 0 {
			i = 0
		} else if i >= k {
			i = k - 1
		}
		w[i]++
		total++
	}
	c := &catParzen{min: p.Min, logw: make([]float64, k), cum: make([]float64, k)}
	acc := 0.0
	for i := range w {
		w[i] /= total
		acc += w[i]
		c.logw[i] = math.Log(w[i])
		c.cum[i] = acc
	}
	return c
}

func (c *catParzen) sample(rng *rand.Rand) float64 {
	r := rng.Float64()
	for i, cm := range c.cum {
		if r < cm {
			return c.min + float64(i)
		}
	}
	return c.min + float64(len(c.cum)-1)
}

func (c *catParzen) logDensity(v float64) float64 {
	i := int(math.Round(v - c.min))
	if i < 0 {
		i = 0
	} else if i >= len(c.logw) {
		i = len(c.logw) - 1
	}
	return c.logw[i]
}

// numParzen is a uniform-weighted Gaussian kernel mixture (optionally in
// log space) plus one uniform prior kernel over the parameter's range.
// Bandwidths are per-kernel and adaptive — each kernel's σ is the larger
// gap to its sorted neighbors (range bounds at the edges), clipped to
// [span/100, span]. Clustered observations therefore get tight kernels,
// which is what lets the search keep refining locally once the good set
// converges; a fixed span-fraction bandwidth plateaus at that fraction's
// resolution.
type numParzen struct {
	p        *conf.Param
	mus      []float64
	sigmas   []float64
	logSpace bool
	lo, hi   float64
}

func newNumParzen(p *conf.Param, vals []float64, logSpace bool) *numParzen {
	lo, hi := p.Min, p.Max
	if logSpace {
		lo, hi = math.Log(p.Min), math.Log(p.Max)
	}
	mus := make([]float64, len(vals))
	for i, v := range vals {
		if logSpace {
			if v < p.Min {
				v = p.Min
			}
			mus[i] = math.Log(v)
		} else {
			mus[i] = v
		}
	}
	sort.Float64s(mus)
	span := hi - lo
	sigmas := make([]float64, len(mus))
	for i, mu := range mus {
		left, right := mu-lo, hi-mu
		if i > 0 {
			left = mu - mus[i-1]
		}
		if i < len(mus)-1 {
			right = mus[i+1] - mu
		}
		s := math.Max(left, right)
		if minS := span / 100; s < minS {
			s = minS
		}
		if s > span {
			s = span
		}
		sigmas[i] = s
	}
	return &numParzen{p: p, mus: mus, sigmas: sigmas, logSpace: logSpace, lo: lo, hi: hi}
}

func (k *numParzen) sample(rng *rand.Rand) float64 {
	width := k.hi - k.lo
	var x float64
	if i := rng.Intn(len(k.mus) + 1); i == len(k.mus) {
		x = k.lo + rng.Float64()*width
	} else {
		x = k.mus[i] + k.sigmas[i]*rng.NormFloat64()
	}
	if k.logSpace {
		x = math.Exp(x)
	}
	return k.p.Clamp(x)
}

func (k *numParzen) logDensity(v float64) float64 {
	width := k.hi - k.lo
	if width < 1e-12 {
		// Degenerate range: the density is a constant spike; it cancels
		// between l and g, so any constant works.
		return 0
	}
	x := v
	if k.logSpace {
		if x < 1e-300 {
			x = 1e-300
		}
		x = math.Log(x)
	}
	w := 1 / float64(len(k.mus)+1)
	pdf := w / width
	invRoot := 1 / math.Sqrt(2*math.Pi)
	for i, mu := range k.mus {
		z := (x - mu) / k.sigmas[i]
		pdf += w * invRoot / k.sigmas[i] * math.Exp(-0.5*z*z)
	}
	return math.Log(pdf + 1e-300)
}
