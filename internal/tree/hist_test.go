package tree

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// relDiff is |a-b| / max(1, |a|, |b|) — the fast-vs-exact tolerance
// metric documented in DESIGN.md §13.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	den := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / den
}

// histDataset builds an n×d matrix mixing continuous, discrete and
// skewed columns, with a target driven by a few features plus noise —
// shaped to exercise full, sparse and near-tied histogram bins.
func histDataset(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			switch j % 3 {
			case 0:
				X[i][j] = rng.Float64() * 100
			case 1:
				X[i][j] = float64(rng.Intn(4)) // discrete: few bins
			default:
				X[i][j] = math.Exp(rng.NormFloat64() * 2) // skewed
			}
		}
		y[i] = X[i][0] + 3*X[i][1] + X[i][2%d]*0.1 + rng.NormFloat64()*0.5
	}
	return X, y
}

// TestFastMatchesExactWithinTolerance pins the DESIGN.md §13 contract:
// for every growth configuration, the fast path's predictions agree
// with the exact oracle (exact_test.go) within 1e-6 relative tolerance. Structure
// may differ where two candidate splits' gains tie within rounding
// noise, so the assertion is on predictions, not node arrays.
func TestFastMatchesExactWithinTolerance(t *testing.T) {
	const tol = 1e-6
	type tc struct {
		name string
		n, d int
		opt  Options
		boot bool // bootstrap sample instead of identity
	}
	cases := []tc{
		{"stump", 400, 8, Options{MaxSplits: 1}, false},
		{"tc5", 1000, 20, Options{MaxSplits: 5}, false},
		{"tc5-bootstrap", 1000, 20, Options{MaxSplits: 5}, true},
		{"deep", 800, 12, Options{MaxSplits: 63, MinLeaf: 2}, false},
		{"sampled", 800, 12, Options{MaxSplits: 31, MinLeaf: 3, FeatureFrac: 1.0 / 3}, true},
		{"sampled-sparse", 30, 9, Options{MaxSplits: 3, MinLeaf: 2, FeatureFrac: 0.5}, false},
		{"minleaf-large", 500, 10, Options{MaxSplits: 7, MinLeaf: 40}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			X, y := histDataset(c.n, c.d, 11)
			b := NewBuilder(X)
			idx := allIdx(c.n)
			if c.boot {
				brng := rand.New(rand.NewSource(7))
				for i := range idx {
					idx[i] = brng.Intn(c.n)
				}
			}
			fast := b.Grow(y, idx, c.opt, rand.New(rand.NewSource(21)))
			exact := exactGrow(b, y, idx, c.opt, rand.New(rand.NewSource(21)))
			probes, _ := histDataset(200, c.d, 12)
			for i, x := range probes {
				if a, e := fast.Predict(x), exact.Predict(x); relDiff(a, e) > tol {
					t.Fatalf("probe %d: fast %v vs exact %v (rel %g)", i, a, e, relDiff(a, e))
				}
			}
		})
	}
}

// TestFastDeterministicAcrossWorkersAndGOMAXPROCS pins the determinism
// half of the §13 contract: the fast path must produce bit-identical
// trees for any Workers value and any GOMAXPROCS, in both subtract
// (full features) and sampled (FeatureFrac < 1) modes.
func TestFastDeterministicAcrossWorkersAndGOMAXPROCS(t *testing.T) {
	X, y := histDataset(900, 16, 31)
	b := NewBuilder(X)
	idx := allIdx(900)
	for _, frac := range []float64{0, 0.4} {
		opt := Options{MaxSplits: 15, MinLeaf: 3, FeatureFrac: frac}
		grow := func(workers, procs int) []FlatNode {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			o := opt
			o.Workers = workers
			return b.Grow(y, idx, o, rand.New(rand.NewSource(5))).Flatten()
		}
		ref := grow(1, 1)
		for _, workers := range []int{1, 2, 8} {
			for _, procs := range []int{1, 4} {
				if got := grow(workers, procs); !reflect.DeepEqual(ref, got) {
					t.Fatalf("frac=%v workers=%d GOMAXPROCS=%d: tree differs from serial", frac, workers, procs)
				}
			}
		}
	}
}

// TestHistCounters checks the tree.hist.{built,subtracted} instrumentation:
// sibling subtraction fires only in full-feature mode.
func TestHistCounters(t *testing.T) {
	X, y := histDataset(600, 10, 41)
	read := func(opt Options, rng *rand.Rand) (built, subtracted int64) {
		b := NewBuilder(X)
		reg := obs.NewRegistry()
		b.Instrument(reg)
		b.Grow(y, allIdx(600), opt, rng)
		return reg.Counter("tree.hist.built").Value(), reg.Counter("tree.hist.subtracted").Value()
	}

	built, subtracted := read(Options{MaxSplits: 5}, nil)
	if built == 0 || subtracted == 0 {
		t.Fatalf("fast full-feature mode: built=%d subtracted=%d, want both > 0", built, subtracted)
	}
	// Every node histogram is either built directly or derived; with
	// MaxSplits=5 and the final level skipped, the frontier can never
	// need more than one build per split plus the root.
	if built > 6 {
		t.Fatalf("fast mode built %d histograms for 5 splits, want <= 6", built)
	}

	built, subtracted = read(Options{MaxSplits: 5, FeatureFrac: 0.5}, rand.New(rand.NewSource(3)))
	if built == 0 {
		t.Fatal("sampled mode: no histograms built")
	}
	if subtracted != 0 {
		t.Fatalf("sampled mode: subtracted=%d, want 0 (parent covers different features)", subtracted)
	}
}

// TestFastGrownPersistRoundTrip is the S4 coverage: trees grown by the
// fast path — subtract and sampled modes — must survive Flatten/FromFlat
// with bit-identical predictions and thresholds whose bin codes still
// walk to the same leaves against re-encoded edges.
func TestFastGrownPersistRoundTrip(t *testing.T) {
	X, y := histDataset(700, 14, 51)
	b := NewBuilder(X)
	probes, _ := histDataset(150, 14, 52)
	edges := b.Edges()
	bm := BinWithEdges(edges, probes)
	for _, opt := range []Options{
		{MaxSplits: 9},
		{MaxSplits: 31, MinLeaf: 3, FeatureFrac: 1.0 / 3},
	} {
		orig := b.Grow(y, allIdx(700), opt, rand.New(rand.NewSource(9)))
		back, err := FromFlat(orig.Flatten())
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(probes))
		got := make([]float64, len(probes))
		orig.AccumulateBatch(probes, 1, want)
		back.AccumulateBatch(probes, 1, got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("opt %+v probe %d: %v != %v after round-trip", opt, i, want[i], got[i])
			}
		}
		binned := make([]float64, len(probes))
		back.AccumulateBinned(edges, bm, 1, binned)
		for i := range want {
			if binned[i] != want[i] {
				t.Fatalf("opt %+v probe %d: binned %v != float %v", opt, i, binned[i], want[i])
			}
		}
	}
}

// TestDerivedSiblingCountsExact verifies the count-plane half of the
// subtraction contract directly: a derived sibling histogram's counts
// equal a direct accumulation bit-for-bit (int32 arithmetic), so
// minLeaf feasibility can never differ between the two.
func TestDerivedSiblingCountsExact(t *testing.T) {
	X, y := histDataset(500, 6, 61)
	b := NewBuilder(X)
	rng := rand.New(rand.NewSource(1))
	idx := allIdx(500)
	left := make([]int, 0, 250)
	right := make([]int, 0, 250)
	for _, i := range idx {
		if rng.Intn(2) == 0 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	parent := b.getHist()
	small := b.getHist()
	direct := b.getHist()
	b.buildHist(parent, y, idx, b.allFeatures, true, 1)
	b.buildHist(small, y, left, b.allFeatures, true, 1)
	b.buildHist(direct, y, right, b.allFeatures, true, 1)
	parent.sub(small)
	for i := range direct.cnt {
		if parent.cnt[i] != direct.cnt[i] {
			t.Fatalf("cnt[%d]: derived %d != direct %d", i, parent.cnt[i], direct.cnt[i])
		}
	}
	for i := range direct.sum {
		if relDiff(parent.sum[i], direct.sum[i]) > 1e-9 {
			t.Fatalf("sum[%d]: derived %v vs direct %v", i, parent.sum[i], direct.sum[i])
		}
	}
}
