package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func makeDS(n, d int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := NewDataset(nil)
	x := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		ds.Add(x, 1+rng.Float64()*100)
	}
	return ds
}

func TestDatasetAddCopies(t *testing.T) {
	ds := NewDataset([]string{"a"})
	row := []float64{1}
	ds.Add(row, 2)
	row[0] = 99
	if ds.Features[0][0] != 1 {
		t.Fatal("Add did not copy the row")
	}
}

func TestDatasetValidate(t *testing.T) {
	good := makeDS(10, 3, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	ragged := makeDS(5, 3, 1)
	ragged.Features[2] = []float64{1}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged rows should fail")
	}
	nan := makeDS(5, 3, 1)
	nan.Features[1][1] = math.NaN()
	if err := nan.Validate(); err == nil {
		t.Error("NaN feature should fail")
	}
	zero := makeDS(5, 3, 1)
	zero.Targets[0] = 0
	if err := zero.Validate(); err == nil {
		t.Error("non-positive target should fail")
	}
	mismatch := makeDS(5, 3, 1)
	mismatch.Targets = mismatch.Targets[:3]
	if err := mismatch.Validate(); err == nil {
		t.Error("row/target mismatch should fail")
	}
}

func TestSplitPartitions(t *testing.T) {
	ds := makeDS(100, 4, 2)
	rng := rand.New(rand.NewSource(3))
	train, test := ds.Split(0.75, rng)
	if train.Len() != 75 || test.Len() != 25 {
		t.Fatalf("split sizes %d/%d, want 75/25", train.Len(), test.Len())
	}
	if train.Dim() != 4 || test.Dim() != 4 {
		t.Error("split changed dimensionality")
	}
}

func TestBootstrapInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	idx := Bootstrap(50, rng)
	if len(idx) != 50 {
		t.Fatalf("len=%d", len(idx))
	}
	for _, i := range idx {
		if i < 0 || i >= 50 {
			t.Fatalf("index %d out of range", i)
		}
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); !almostEq(got, 0.1) {
		t.Errorf("RelErr=%v want 0.1", got)
	}
	if got := RelErr(90, 100); !almostEq(got, 0.1) {
		t.Errorf("RelErr=%v want 0.1 (symmetric)", got)
	}
	if got := RelErr(5, 0); got != 5 {
		t.Errorf("RelErr with zero measurement = %v", got)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

type constModel float64

func (c constModel) Predict([]float64) float64 { return float64(c) }

func TestEvaluate(t *testing.T) {
	ds := NewDataset(nil)
	ds.Add([]float64{0}, 100)
	ds.Add([]float64{0}, 200)
	e := Evaluate(constModel(100), ds)
	if !almostEq(e.Mean, 0.25) || !almostEq(e.Max, 0.5) || !almostEq(e.Min, 0) {
		t.Fatalf("Evaluate = %+v", e)
	}
	if !almostEq(e.Accuracy(), 0.75) {
		t.Errorf("Accuracy = %v", e.Accuracy())
	}
	if got := Evaluate(constModel(1), NewDataset(nil)); got.N != 0 {
		t.Errorf("empty evaluate N = %d", got.N)
	}
}

func TestStandardizer(t *testing.T) {
	ds := makeDS(500, 3, 5)
	s := FitStandardizer(ds)
	Z := s.ApplyAll(ds.Features)
	for j := 0; j < 3; j++ {
		mean, varr := 0.0, 0.0
		for i := range Z {
			mean += Z[i][j]
		}
		mean /= float64(len(Z))
		for i := range Z {
			varr += (Z[i][j] - mean) * (Z[i][j] - mean)
		}
		varr /= float64(len(Z))
		if math.Abs(mean) > 1e-9 {
			t.Errorf("col %d standardized mean %v", j, mean)
		}
		if math.Abs(varr-1) > 1e-6 {
			t.Errorf("col %d standardized var %v", j, varr)
		}
	}
}

func TestStandardizerConstantColumn(t *testing.T) {
	ds := NewDataset(nil)
	ds.Add([]float64{7}, 1)
	ds.Add([]float64{7}, 2)
	s := FitStandardizer(ds)
	z := s.Apply([]float64{7})
	if math.IsNaN(z[0]) || math.IsInf(z[0], 0) {
		t.Fatalf("constant column standardized to %v", z[0])
	}
}

// Property: standardize-then-apply is invertible up to numerical error.
func TestStandardizerRoundTripProperty(t *testing.T) {
	ds := makeDS(100, 5, 6)
	s := FitStandardizer(ds)
	f := func(i uint) bool {
		row := ds.Features[int(i%uint(ds.Len()))]
		z := s.Apply(row)
		for j := range z {
			back := z[j]*s.Std[j] + s.Mean[j]
			if math.Abs(back-row[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
