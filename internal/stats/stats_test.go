package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"mixed", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tc := range tests {
		if got := Mean(tc.in); !almost(got, tc.want) {
			t.Errorf("%s: Mean=%v want %v", tc.name, got, tc.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4) {
		t.Errorf("Variance=%v want 4", got)
	}
	if got := StdDev(xs); !almost(got, 2) {
		t.Errorf("StdDev=%v want 2", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); !almost(got, 4) {
		t.Errorf("GeoMean=%v want 4", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Errorf("GeoMean of non-positives = %v, want 0", got)
	}
	// Non-positive entries are skipped, not zeroing the result.
	if got := GeoMean([]float64{0, 9}); !almost(got, 9) {
		t.Errorf("GeoMean with skip = %v, want 9", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min=%v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max=%v", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0=%v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100=%v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("p50=%v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("p25=%v", got)
	}
	if got := Percentile([]float64{7, 1}, 50); !almost(got, 4) {
		t.Errorf("interpolated median=%v want 4", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile=%v", got)
	}
	// Percentile must not reorder its input.
	orig := []float64{9, 1, 5}
	Percentile(orig, 50)
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median=%v", got)
	}
}

// Property: mean lies within [min, max] and variance is non-negative.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-6 && m <= Max(clean)+1e-6 && Variance(clean) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		n := 1 + int(seed%50+50)%50
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: GeoMean(xs) <= Mean(xs) for positive inputs (AM-GM).
func TestAMGMProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(int64) bool {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*1000 + 0.001
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
