package tree

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestPredictBatchMatchesPredict pins the batch path's contract: for any
// grown tree, batch prediction — AccumulateBatch at scale 1 over a
// zeroed out, the first tree of every forest and boosting sum — must
// agree bit-for-bit with per-row Predict.
func TestPredictBatchMatchesPredict(t *testing.T) {
	X, y := synth(600, 21)
	b := NewBuilder(X)
	rng := rand.New(rand.NewSource(22))
	for _, opt := range []Options{
		{MaxSplits: 1},
		{MaxSplits: 5},
		{MaxSplits: 40, MinLeaf: 3},
		{MaxSplits: 20, FeatureFrac: 0.5},
	} {
		tr := b.Grow(y, allIdx(600), opt, rng)
		out := make([]float64, len(X))
		tr.AccumulateBatch(X, 1, out)
		for i, row := range X {
			if got := tr.Predict(row); got != out[i] {
				t.Fatalf("opt %+v row %d: Predict=%v AccumulateBatch=%v", opt, i, got, out[i])
			}
		}
	}
}

// TestAccumulateBatchMatchesLoop checks the fused scale-and-add against
// the per-row update it replaces in the boosting inner loop.
func TestAccumulateBatchMatchesLoop(t *testing.T) {
	X, y := synth(400, 23)
	b := NewBuilder(X)
	tr := b.Grow(y, allIdx(400), Options{MaxSplits: 7}, nil)
	const scale = 0.05
	want := make([]float64, len(X))
	got := make([]float64, len(X))
	for i := range want {
		want[i] = float64(i) * 0.25
		got[i] = want[i]
	}
	for i, row := range X {
		want[i] += scale * tr.Predict(row)
	}
	tr.AccumulateBatch(X, scale, got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d: loop=%v batch=%v", i, want[i], got[i])
		}
	}
}

// TestAccumulateBinnedMatchesBatch pins the bin codes a grown tree's
// thresholds index: walking them over binned rows — the builder's own matrix or
// external rows encoded with Builder.Bin — must agree bit-for-bit with
// the float-walk update.
func TestAccumulateBinnedMatchesBatch(t *testing.T) {
	X, y := synth(500, 61)
	probe, _ := synth(200, 62)
	b := NewBuilder(X)
	rng := rand.New(rand.NewSource(63))
	for _, opt := range []Options{
		{MaxSplits: 1},
		{MaxSplits: 5},
		{MaxSplits: 30, MinLeaf: 3, FeatureFrac: 0.5},
	} {
		tr := b.Grow(y, allIdx(500), opt, rng)
		const scale = 0.05
		for _, tc := range []struct {
			rows [][]float64
			bm   *BinMatrix
		}{
			{X, b.Binned()},
			{probe, b.Bin(probe)},
		} {
			want := make([]float64, len(tc.rows))
			got := make([]float64, len(tc.rows))
			for i := range want {
				want[i] = float64(i) * 0.5
				got[i] = want[i]
			}
			tr.AccumulateBatch(tc.rows, scale, want)
			tr.AccumulateBinned(b.edges, tc.bm, scale, got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("opt %+v row %d: batch=%v binned=%v", opt, i, want[i], got[i])
				}
			}
		}
	}
}

// TestParallelGrowIdentical pins split-scan determinism: the tree grown
// with a parallel feature scan must be structurally identical to the
// serial one, for full scans and feature-subsampled scans alike.
func TestParallelGrowIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n, d := 900, 12
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Float64() * 50
		}
		y[i] = X[i][0]*2 + X[i][3]*X[i][7] + rng.NormFloat64()
	}
	b := NewBuilder(X)
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0), 16} {
		for _, frac := range []float64{0, 0.4} {
			serialRng := rand.New(rand.NewSource(77))
			parRng := rand.New(rand.NewSource(77))
			serial := b.Grow(y, allIdx(n), Options{MaxSplits: 15, FeatureFrac: frac, Workers: 1}, serialRng)
			par := b.Grow(y, allIdx(n), Options{MaxSplits: 15, FeatureFrac: frac, Workers: workers}, parRng)
			if !reflect.DeepEqual(serial.Flatten(), par.Flatten()) {
				t.Fatalf("workers=%d frac=%v: parallel grow produced a different tree", workers, frac)
			}
		}
	}
}

// TestNumLeavesCached checks the O(1) leaf count against a recount of the
// flattened nodes, across growth and persistence round-trips.
func TestNumLeavesCached(t *testing.T) {
	X, y := synth(500, 41)
	b := NewBuilder(X)
	for _, tc := range []int{1, 4, 25} {
		tr := b.Grow(y, allIdx(500), Options{MaxSplits: tc}, nil)
		count := 0
		for _, n := range tr.Flatten() {
			if n.Leaf {
				count++
			}
		}
		if tr.NumLeaves() != count {
			t.Fatalf("tc=%d: NumLeaves=%d, flattened count=%d", tc, tr.NumLeaves(), count)
		}
		rt, err := FromFlat(tr.Flatten())
		if err != nil {
			t.Fatal(err)
		}
		if rt.NumLeaves() != count {
			t.Fatalf("tc=%d: round-tripped NumLeaves=%d, want %d", tc, rt.NumLeaves(), count)
		}
	}
}
