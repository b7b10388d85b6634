package main

import (
	"math"
	"testing"

	"repro/internal/obs"
)

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 5, 5},   // rank ceil(5) = 5
		{90, 9, 1},   // rank 9
		{95, 10, 0},  // rank ceil(9.5) = 10
		{100, 10, 0}, // the maximum
		{1, 1, 9},    // rank ceil(0.1) = 1
		{0, 1, 9},    // clamped to the first rank
	} {
		v, beyond, ok := nearestRank(sorted, c.p)
		if !ok || v != c.want || beyond != c.beyond {
			t.Errorf("nearestRank(p%g) = %v, %d beyond, ok=%v; want %v, %d beyond", c.p, v, beyond, ok, c.want, c.beyond)
		}
	}
	if _, _, ok := nearestRank(nil, 50); ok {
		t.Error("nearestRank of no samples reported ok")
	}
}

func TestTailPercentileTenBeyondRule(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	// p95 of 200 samples is rank 190: exactly ten beyond it, allowed.
	if v, err := tailPercentile(mk(200), 95); err != nil || v != 190 {
		t.Errorf("p95 of 200 = %v, %v; want 190, nil", v, err)
	}
	// p95 of 199 samples is rank 190 (ceil 189.05): nine beyond, refused.
	if _, err := tailPercentile(mk(199), 95); err == nil {
		t.Error("p95 of 199 samples accepted with nine beyond it")
	}
	// p99 of 1000 is rank 990, ten beyond.
	if v, err := tailPercentile(mk(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990, nil", v, err)
	}
	if _, err := tailPercentile(nil, 50); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

func TestMedianIsNearestRankOfUnsorted(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2}
	if got := median(xs); got != 3 { // sorted 1 2 3 5 7 9, rank 3
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 9 {
		t.Error("median reordered its input")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := geoMean([]float64{2, 8})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Errorf("geoMean(2, 8) = %v, %v; want 4", g, err)
	}
	// Thirty speedups near 1e300 would overflow a running product.
	big := make([]float64, 30)
	for i := range big {
		big[i] = 1e300
	}
	if g, err := geoMean(big); err != nil || math.Abs(g/1e300-1) > 1e-9 {
		t.Errorf("geoMean of 1e300s = %v, %v", g, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.Inf(1)}, {math.NaN()}} {
		if _, err := geoMean(bad); err == nil {
			t.Errorf("geoMean(%v) accepted", bad)
		}
	}
}

func TestFlattenSpansSelfTime(t *testing.T) {
	roots := []obs.SpanSnapshot{
		{Name: "tune", Sec: 10, Count: 2, Children: []obs.SpanSnapshot{
			{Name: "model", Sec: 4, Count: 2},
			{Name: "search", Sec: 5, Count: 10, Children: []obs.SpanSnapshot{
				{Name: "predict", Sec: 3, Count: 100},
			}},
		}},
		{Name: "tree.grow", Sec: 2.5, Count: 7},
	}
	got := flattenSpans(roots)
	want := []spanSelf{
		{Path: "tune", Count: 2, Total: 10, Self: 1},
		{Path: "tune/model", Count: 2, Total: 4, Self: 4},
		{Path: "tune/search", Count: 10, Total: 5, Self: 2},
		{Path: "tune/search/predict", Count: 100, Total: 3, Self: 3},
		{Path: "tree.grow", Count: 7, Total: 2.5, Self: 2.5},
	}
	if len(got) != len(want) {
		t.Fatalf("flattenSpans returned %d nodes, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Path != want[i].Path || got[i].Count != want[i].Count ||
			math.Abs(got[i].Total-want[i].Total) > 1e-12 || math.Abs(got[i].Self-want[i].Self) > 1e-12 {
			t.Errorf("node %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if v := spanTotal(got, "tune/search"); v != 5 {
		t.Errorf("spanTotal(tune/search) = %v, want 5", v)
	}
	if v := spanTotal(got, "missing"); v != 0 {
		t.Errorf("spanTotal(missing) = %v, want 0", v)
	}
}

func TestSpanTotalPrefixCountsRootsOnly(t *testing.T) {
	flat := flattenSpans([]obs.SpanSnapshot{
		{Name: "serve.job.tune", Sec: 3, Count: 2},
		{Name: "serve.job.tune_online", Sec: 5, Count: 3, Children: []obs.SpanSnapshot{
			{Name: "serve.job.inner", Sec: 1, Count: 1},
		}},
		{Name: "serve.http", Sec: 7, Count: 9},
	})
	sec, n := spanTotalPrefix(flat, "serve.job.")
	if sec != 8 || n != 5 {
		t.Errorf("spanTotalPrefix = %v s over %d spans, want 8 s over 5", sec, n)
	}
}

func TestDeriveSeedStreamsDiffer(t *testing.T) {
	seen := map[int64]string{}
	for _, stream := range []string{"tune_paper", "tune_paper/warmup", "dacd_jobs"} {
		for i := 0; i < 100; i++ {
			s := deriveSeed(1, stream, i)
			if s < 1 || s > 1<<30 {
				t.Fatalf("deriveSeed(1, %s, %d) = %d outside [1, 2^30]", stream, i, s)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("deriveSeed collision: %s/%d and %s", stream, i, prev)
			}
			seen[s] = stream
		}
	}
	if deriveSeed(1, "x", 0) != deriveSeed(1, "x", 0) || deriveSeed(1, "x", 0) == deriveSeed(2, "x", 0) {
		t.Error("deriveSeed is not a deterministic function of the benchmark seed")
	}
}
