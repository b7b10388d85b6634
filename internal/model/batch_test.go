package model

import "testing"

// rowModel is a Model without a batch path.
type rowModel struct{}

func (rowModel) Predict(x []float64) float64 {
	s := 1.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// countingBatch records whether the batch path was taken.
type countingBatch struct {
	rowModel
	batches int
}

func (c *countingBatch) PredictBatch(X [][]float64, out []float64) {
	c.batches++
	for i, x := range X {
		out[i] = c.Predict(x)
	}
}

func probeRows(n int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{float64(i), float64(i) * 0.5, 3 - float64(i)}
	}
	return X
}

// TestPredictBatchFallback pins the helper's contract: per-row fallback
// for plain models, one batch call for BatchPredictors, identical values.
func TestPredictBatchFallback(t *testing.T) {
	X := probeRows(9)
	want := make([]float64, len(X))
	for i, x := range X {
		want[i] = rowModel{}.Predict(x)
	}

	plain := make([]float64, len(X))
	PredictBatch(rowModel{}, X, plain)
	cb := &countingBatch{}
	batched := make([]float64, len(X))
	PredictBatch(cb, X, batched)
	if cb.batches != 1 {
		t.Fatalf("batch model scored with %d batch calls, want 1", cb.batches)
	}
	for i := range X {
		if plain[i] != want[i] || batched[i] != want[i] {
			t.Fatalf("row %d: plain=%v batched=%v want %v", i, plain[i], batched[i], want[i])
		}
	}
}

// TestEvaluateUsesBatchPath checks Evaluate routes through PredictBatch
// and produces the same statistics as the per-row definition.
func TestEvaluateUsesBatchPath(t *testing.T) {
	ds := NewDataset(nil)
	for i, x := range probeRows(20) {
		ds.Add(x, 5+float64(i))
	}
	cb := &countingBatch{}
	got := Evaluate(cb, ds)
	if cb.batches != 1 {
		t.Fatalf("Evaluate made %d batch calls, want 1", cb.batches)
	}
	ref := Evaluate(rowModel{}, ds)
	if got != ref {
		t.Fatalf("batch Evaluate %+v != per-row %+v", got, ref)
	}
}
