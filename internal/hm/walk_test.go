package hm

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/model"
)

// The pointer walk is the reference every compiled evaluation must
// reproduce bit for bit: each first-order sub-model is base + lr·Σ tree
// walks, accumulated in tree order, blended by the coefficients from 0.

func walkSub(fo *firstOrder, x []float64) float64 {
	v := fo.base
	for _, t := range fo.trees {
		v += fo.lr * t.Predict(x)
	}
	return v
}

func walkPredict(m *Model, x []float64) float64 {
	v := 0.0
	for i, s := range m.subs {
		v += m.coefs[i] * walkSub(s, x)
	}
	if m.log {
		return math.Exp(v)
	}
	return v
}

// walkPredictBatch is walkPredict tree-at-a-time over X
// (tree.AccumulateBatch), the batch walk PredictBatch used to run.
func walkPredictBatch(m *Model, X [][]float64, out []float64) {
	tmp := make([]float64, len(X))
	for i := range X {
		out[i] = 0
	}
	for j, s := range m.subs {
		for i := range tmp {
			tmp[i] = s.base
		}
		for _, t := range s.trees {
			t.AccumulateBatch(X, s.lr, tmp)
		}
		for i := range X {
			out[i] += m.coefs[j] * tmp[i]
		}
	}
	if m.log {
		for i := range X {
			out[i] = math.Exp(out[i])
		}
	}
}

func walkPredictWithUncertainty(m *Model, x []float64) (pred, std float64) {
	if len(m.subs) == 0 {
		return 0, 0
	}
	mean := 0.0
	for i, s := range m.subs {
		mean += m.coefs[i] * walkSub(s, x)
	}
	if len(m.subs) == 1 {
		if m.log {
			return math.Exp(mean), 0
		}
		return mean, 0
	}
	sum, sumSq := 0.0, 0.0
	for _, s := range m.subs {
		v := walkSub(s, x)
		sum += v
		sumSq += v * v
	}
	n := float64(len(m.subs))
	varr := sumSq/n - (sum/n)*(sum/n)
	if varr < 0 {
		varr = 0
	}
	sd := math.Sqrt(varr)
	if m.log {
		p := math.Exp(mean)
		return p, p * sd
	}
	return mean, sd
}

// splitThresholds returns every distinct split threshold of m per
// feature, ascending.
func splitThresholds(m *Model) map[int][]float64 {
	set := map[int]map[float64]bool{}
	for _, fo := range m.subs {
		for _, t := range fo.trees {
			for _, n := range t.Flatten() {
				if n.Leaf {
					continue
				}
				f := int(n.Feature)
				if set[f] == nil {
					set[f] = map[float64]bool{}
				}
				set[f][n.Threshold] = true
			}
		}
	}
	out := map[int][]float64{}
	for f, ts := range set {
		for v := range ts {
			out[f] = append(out[f], v)
		}
		sort.Float64s(out[f])
	}
	return out
}

// edgeRows builds probe rows of width d around m's decision boundaries:
// every split threshold exactly and one ulp either side, NaN, ±Inf and
// ±0 on each feature, the remaining features drawn from base rows.
func edgeRows(m *Model, d int, base [][]float64) [][]float64 {
	var rows [][]float64
	k := 0
	add := func(f int, v float64) {
		x := append([]float64(nil), base[k%len(base)]...)
		k++
		x[f] = v
		rows = append(rows, x)
	}
	for f, ts := range splitThresholds(m) {
		for _, t := range ts {
			add(f, t)
			add(f, math.Nextafter(t, math.Inf(-1)))
			add(f, math.Nextafter(t, math.Inf(1)))
		}
	}
	for f := 0; f < d; f++ {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
			add(f, v)
		}
	}
	allNaN := make([]float64, d)
	for f := range allNaN {
		allNaN[f] = math.NaN()
	}
	return append(rows, allNaN)
}

// assertMatchesWalk compares Predict, PredictBatch (at block sizes 0–9
// and 100, with out longer than the block so a write past it shows) and
// PredictWithUncertainty against the walk oracle, bit for bit.
func assertMatchesWalk(t *testing.T, name string, m *Model, rows [][]float64) {
	t.Helper()
	const sentinel = -12345.5
	for i, x := range rows {
		if got, want := m.Predict(x), walkPredict(m, x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: row %d %v: Predict %v, walk %v", name, i, x, got, want)
		}
		gp, gs := m.PredictWithUncertainty(x)
		wp, ws := walkPredictWithUncertainty(m, x)
		if math.Float64bits(gp) != math.Float64bits(wp) || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("%s: row %d: PredictWithUncertainty (%v, %v), walk (%v, %v)", name, i, gp, gs, wp, ws)
		}
	}
	for _, size := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100} {
		for lo := 0; lo+size <= len(rows); lo += max(size, 1) * 7 {
			X := rows[lo : lo+size]
			got := make([]float64, size+5)
			want := make([]float64, size+5)
			for i := range got {
				got[i], want[i] = sentinel, sentinel
			}
			m.PredictBatch(X, got)
			walkPredictBatch(m, X, want)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: block %d+%d row %d: PredictBatch %v, walk %v", name, lo, size, i, got[i], want[i])
				}
			}
			if size == 0 {
				break
			}
		}
	}
}

// TestCompiledMatchesWalk pins the compiled kernel to the pointer walk,
// bit for bit, over tree complexities 1–5, log and raw targets, orders 1
// and 2, v2 and v1 snapshot reloads, a model resumed on different data
// until one feature carries more than 127 distinct thresholds, rows on
// and one ulp around every threshold plus NaN and ±Inf, and block sizes
// 0–9 and 100, at GOMAXPROCS 1 and 4.
func TestCompiledMatchesWalk(t *testing.T) {
	type named struct {
		name string
		m    *Model
	}
	var models []named
	ds := synthDS(500, 111)
	for tc := 1; tc <= maxSplits; tc++ {
		for _, noLog := range []bool{false, true} {
			for _, order := range []int{1, 2} {
				opt := Options{Trees: 40, LearningRate: 0.1, TreeComplexity: tc, NoLogTarget: noLog,
					MaxOrder: order, TargetAccuracy: 0.9999, ConvergeWindow: 10, Seed: int64(tc)}
				m, err := Train(ds, opt)
				if err != nil {
					t.Fatal(err)
				}
				if m.Order != order {
					t.Fatalf("tc=%d noLog=%v: order %d, want %d", tc, noLog, m.Order, order)
				}
				models = append(models, named{"train", m})
			}
		}
	}
	last := models[len(models)-1].m
	var v2 bytes.Buffer
	if err := last.Save(&v2); err != nil {
		t.Fatal(err)
	}
	fromV2, err := Load(&v2)
	if err != nil {
		t.Fatal(err)
	}
	fromV1, err := Load(bytes.NewReader(encodeV1(t, last)))
	if err != nil {
		t.Fatal(err)
	}
	models = append(models, named{"v2-reload", fromV2}, named{"v1-reload", fromV1},
		named{"resumed", resumedPastByteCodes(t)})

	base := synthDS(40, 112).Features
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, nm := range models {
			assertMatchesWalk(t, nm.name, nm.m, append(edgeRows(nm.m, 3, base), synthDS(150, 113).Features...))
		}
		runtime.GOMAXPROCS(prev)
	}
}

// resumedPastByteCodes trains a model and resumes it on datasets whose
// feature 0 spans shifted ranges, so every resume grows trees against new
// bin edges and feature 0 ends up with more distinct thresholds than an
// 8-bit code could index.
func resumedPastByteCodes(t *testing.T) *Model {
	t.Helper()
	shifted := func(n int, seed int64, shift float64) *model.Dataset {
		rng := rand.New(rand.NewSource(seed))
		ds := model.NewDataset(nil)
		for i := 0; i < n; i++ {
			x := []float64{shift + rng.Float64()*10, rng.Float64() * 10, rng.Float64() * 10}
			ds.Add(x, 10+math.Sin(3*x[0])*5+x[0]+x[1])
		}
		return ds
	}
	opt := Options{Trees: 200, LearningRate: 0.1, TreeComplexity: 5, TargetAccuracy: 0.9999,
		ConvergeWindow: 1000, Seed: 3}
	m, err := Train(shifted(600, 1, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		if err := Resume(m, shifted(600, int64(k+1), 0.37*float64(k)), opt, 200); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(splitThresholds(m)[0]); n <= 127 {
		t.Fatalf("feature 0 carries %d distinct thresholds, want > 127", n)
	}
	return m
}
