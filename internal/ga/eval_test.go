package ga

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/conf"
)

// countingObjective scores rows with f and records how often each row
// (by Key) reached it; safe for the evaluator's concurrent chunks.
type countingObjective struct {
	f     func([]float64) float64
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingObjective) objective(X [][]float64, out []float64) {
	for i, x := range X {
		out[i] = c.f(x)
	}
	c.mu.Lock()
	for _, x := range X {
		c.calls[Key(x)]++
	}
	c.mu.Unlock()
}

// TestEvaluateSharedEvaluator pins the one evaluator's contract on
// blocks with in-block duplicates against a pre-populated cache,
// at Workers 1, 2 and 4 and GOMAXPROCS 1 and 4: the values are identical
// in every setting (cached rows replay their stored value), every row is
// either evaluated or a hit, and the objective sees each unique unseen
// row exactly once across the blocks.
func TestEvaluateSharedEvaluator(t *testing.T) {
	space := conf.StandardSpace()
	f := sphere(space)
	rng := rand.New(rand.NewSource(5))
	distinct := make([][]float64, 24)
	for i := range distinct {
		distinct[i] = space.Random(rng).Vector()
	}
	// Rows 0-5 are pre-cached under a sentinel value, so a replay is
	// distinguishable from a fresh objective call.
	const precached = 6
	sentinel := func(i int) float64 { return -1 - float64(i) }
	// Block one: every distinct row in a shuffled order, with in-block
	// duplicates; block two: a reshuffled overlap of block one plus rows
	// no block has seen.
	var block1, block2 [][]float64
	for _, i := range rng.Perm(18) {
		block1 = append(block1, distinct[i])
		if i%3 == 0 {
			block1 = append(block1, append([]float64(nil), distinct[i]...))
		}
	}
	for _, i := range rng.Perm(24) {
		block2 = append(block2, distinct[i])
	}
	block2 = append(block2, distinct[20], distinct[4])
	want := func(x []float64) float64 {
		for i := 0; i < precached; i++ {
			if reflect.DeepEqual(x, distinct[i]) {
				return sentinel(i)
			}
		}
		return f(x)
	}

	var ref [2][]float64
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			cache := GenomeCache{}
			for i := 0; i < precached; i++ {
				cache[Key(distinct[i])] = sentinel(i)
			}
			obj := &countingObjective{f: f, calls: map[string]int{}}
			var got [2][]float64
			for b, X := range [][][]float64{block1, block2} {
				got[b] = make([]float64, len(X))
				n, hits := Evaluate(obj.objective, cache, workers, X, got[b])
				if n+hits != len(X) {
					t.Fatalf("procs=%d workers=%d block %d: evaluated %d + hits %d != %d rows",
						procs, workers, b, n, hits, len(X))
				}
				for i, x := range X {
					if got[b][i] != want(x) {
						t.Fatalf("procs=%d workers=%d block %d row %d: %v, want %v",
							procs, workers, b, i, got[b][i], want(x))
					}
				}
			}
			runtime.GOMAXPROCS(prev)

			for i, x := range distinct {
				wantCalls := 1
				if i < precached {
					wantCalls = 0
				}
				if c := obj.calls[Key(x)]; c != wantCalls {
					t.Fatalf("procs=%d workers=%d: row %d reached the objective %d times, want %d",
						procs, workers, i, c, wantCalls)
				}
			}
			if len(obj.calls) != len(distinct)-precached {
				t.Fatalf("procs=%d workers=%d: objective saw %d distinct rows, want %d",
					procs, workers, len(obj.calls), len(distinct)-precached)
			}
			if ref[0] == nil {
				ref = got
			} else if !reflect.DeepEqual(got, ref) {
				t.Fatalf("procs=%d workers=%d: values differ from the first setting", procs, workers)
			}
		}
	}
}

// TestEvaluateNilCacheDedupesBlock checks the cache-less form: duplicate
// rows in one block are scored once, and nothing is remembered between
// blocks.
func TestEvaluateNilCacheDedupesBlock(t *testing.T) {
	space := conf.StandardSpace()
	obj := &countingObjective{f: sphere(space), calls: map[string]int{}}
	x := space.Default().Vector()
	X := [][]float64{x, x, x}
	out := make([]float64, len(X))
	for round := 1; round <= 2; round++ {
		n, hits := Evaluate(obj.objective, nil, 0, X, out)
		if n != 1 || hits != 2 {
			t.Fatalf("round %d: evaluated %d, hits %d; want 1, 2", round, n, hits)
		}
		if c := obj.calls[Key(x)]; c != round {
			t.Fatalf("round %d: row reached the objective %d times", round, c)
		}
	}
}

// TestKeyBitExact pins the memo key: bit-identical vectors share a key,
// and any bit difference — adjacent floats, signed zero, length —
// separates them.
func TestKeyBitExact(t *testing.T) {
	a := []float64{1.5, -2.25, 0, 1e-300}
	b := []float64{1.5, -2.25, 0, 1e-300}
	if Key(a) != Key(b) {
		t.Fatal("bit-identical vectors produced different keys")
	}
	if len(Key(a)) != 8*len(a) {
		t.Fatalf("key length %d, want %d", len(Key(a)), 8*len(a))
	}

	// Any single-bit difference must change the key.
	c := append([]float64(nil), a...)
	c[3] = math.Nextafter(c[3], 1)
	if Key(a) == Key(c) {
		t.Fatal("adjacent floats collided")
	}

	// Signed zero and NaN payloads are distinct bit patterns: a bit-exact
	// memo must not conflate them.
	if Key([]float64{0}) == Key([]float64{math.Copysign(0, -1)}) {
		t.Fatal("+0 and -0 collided")
	}
	if Key(nil) != "" {
		t.Fatal("nil vector should encode empty")
	}

	// Length is part of the key: a vector must not collide with its
	// zero-padded extension.
	if Key([]float64{1}) == Key([]float64{1, 0}) {
		t.Fatal("vector collided with its zero-padded extension")
	}
}

// TestKeyOneAllocation pins the key's cost on the hot paths (every GA
// genome, every served predict): one allocation per key.
func TestKeyOneAllocation(t *testing.T) {
	x := conf.StandardSpace().Default().Vector()
	if n := testing.AllocsPerRun(100, func() { _ = Key(x) }); n != 1 {
		t.Fatalf("Key allocates %v times per call, want 1", n)
	}
}

// TestConvergedShiftedObjective pins the Converged rule for negative
// objectives. The tolerance is 0.005·|best|, so shifting the objective
// by −2·best — which maps best to −best and keeps the band's width —
// must report the same convergence generation as the unshifted run on
// the same trajectory. (A tolerance of best·0.005 is negative for a
// negative best, and every negative run reported 0.)
func TestConvergedShiftedObjective(t *testing.T) {
	space := conf.StandardSpace()
	f := sphere(space)
	opt := quickOpt()
	ref := Minimize(space, Scalar(f), nil, opt)
	if ref.Converged < 1 {
		t.Fatalf("unshifted run: Converged = %d", ref.Converged)
	}
	shift := 2 * ref.BestFitness
	shifted := Minimize(space, Scalar(func(x []float64) float64 { return f(x) - shift }), nil, opt)
	if !reflect.DeepEqual(shifted.Best, ref.Best) || len(shifted.History) != len(ref.History) {
		t.Fatal("shifting the objective changed the trajectory")
	}
	if shifted.BestFitness >= 0 {
		t.Fatalf("shifted best %v, want negative", shifted.BestFitness)
	}
	if shifted.Converged != ref.Converged {
		t.Fatalf("shifted Converged = %d, unshifted %d", shifted.Converged, ref.Converged)
	}

	// A far-negative objective converges somewhere, not never.
	far := Minimize(space, Scalar(func(x []float64) float64 { return f(x) - 1000 }), nil, opt)
	if far.Converged < 1 || far.Converged > len(far.History) {
		t.Fatalf("sphere-1000: Converged = %d out of [1, %d]", far.Converged, len(far.History))
	}
}

// TestConvergedAtNonNegativeUnchanged pins the non-negative threshold to
// the historical best·1.005 + 1e-12 bit for bit, including at the
// boundary.
func TestConvergedAtNonNegativeUnchanged(t *testing.T) {
	for _, best := range []float64{0, 1e-9, 0.37, 12.5, 1e6} {
		limit := best*1.005 + 1e-12
		hist := []float64{math.Nextafter(limit, math.Inf(1)) * 4, math.Nextafter(limit, math.Inf(1)), limit, best}
		if got := ConvergedAt(hist, best); got != 3 {
			t.Fatalf("best %v: ConvergedAt = %d, want 3", best, got)
		}
	}
	if got := ConvergedAt(nil, 1); got != 0 {
		t.Fatalf("empty history: ConvergedAt = %d, want 0", got)
	}
}
