// Package model defines the shared contract between DAC's performance
// models: datasets of performance vectors (Eq. 5), the Model interface,
// the Backend training contract, the paper's prediction-error metric
// (Eq. 2), and the standardization and resampling helpers the learners
// share.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// Model predicts a Spark program's execution time from a feature vector
// (the 41 encoded configuration values followed by the dataset size).
type Model interface {
	// Predict returns the predicted execution time in seconds.
	Predict(x []float64) float64
}

// BatchPredictor is implemented by models that can score a whole block of
// rows in one call (hm.Model, rf.Forest): walking the ensemble
// tree-at-a-time over all rows keeps each tree's nodes hot in cache
// instead of re-faulting the whole model per row. Implementations must
// return results bit-identical to calling Predict per row.
type BatchPredictor interface {
	Model
	// PredictBatch writes the prediction for X[i] into out[i];
	// len(out) must equal len(X).
	PredictBatch(X [][]float64, out []float64)
}

// PredictBatch writes m's predictions for every row of X into out, using
// the model's batch fast path when it has one and falling back to per-row
// Predict otherwise. Either way out is bit-identical.
func PredictBatch(m Model, X [][]float64, out []float64) {
	if bp, ok := m.(BatchPredictor); ok {
		bp.PredictBatch(X, out)
		return
	}
	for i, x := range X {
		out[i] = m.Predict(x)
	}
}

// Dataset is a design matrix of performance vectors: row i holds the
// features of execution i and Targets[i] its measured execution time t_i.
type Dataset struct {
	// Features is n rows by d columns.
	Features [][]float64
	// Targets holds the measured execution times, len n.
	Targets []float64
	// Names optionally labels the d feature columns.
	Names []string
}

// NewDataset allocates an empty dataset with named columns.
func NewDataset(names []string) *Dataset {
	return &Dataset{Names: names}
}

// Add appends one performance vector. It copies x.
func (ds *Dataset) Add(x []float64, t float64) {
	row := make([]float64, len(x))
	copy(row, x)
	ds.Features = append(ds.Features, row)
	ds.Targets = append(ds.Targets, t)
}

// Len returns the number of samples.
func (ds *Dataset) Len() int { return len(ds.Targets) }

// Dim returns the feature dimensionality (0 for an empty dataset).
func (ds *Dataset) Dim() int {
	if len(ds.Features) == 0 {
		return 0
	}
	return len(ds.Features[0])
}

// Validate reports structural problems: ragged rows, NaN features, or
// non-positive targets.
func (ds *Dataset) Validate() error {
	if len(ds.Features) != len(ds.Targets) {
		return fmt.Errorf("model: %d feature rows but %d targets", len(ds.Features), len(ds.Targets))
	}
	d := ds.Dim()
	for i, row := range ds.Features {
		if len(row) != d {
			return fmt.Errorf("model: row %d has %d features, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("model: row %d feature %d is %v", i, j, v)
			}
		}
		if t := ds.Targets[i]; t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("model: target %d is %v, want positive finite", i, ds.Targets[i])
		}
	}
	return nil
}

// Subset returns a view-by-copy of the rows in idx.
func (ds *Dataset) Subset(idx []int) *Dataset {
	out := NewDataset(ds.Names)
	for _, i := range idx {
		out.Add(ds.Features[i], ds.Targets[i])
	}
	return out
}

// Split partitions the dataset into a training set of trainFrac of the
// rows and a test set of the rest, shuffled by rng.
func (ds *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	n := ds.Len()
	perm := rng.Perm(n)
	cut := int(float64(n) * trainFrac)
	if cut < 1 {
		cut = 1
	}
	if cut > n {
		cut = n
	}
	return ds.Subset(perm[:cut]), ds.Subset(perm[cut:])
}

// Bootstrap returns n row indices sampled with replacement.
func Bootstrap(n int, rng *rand.Rand) []int {
	idx := make([]int, n)
	BootstrapInto(idx, rng)
	return idx
}

// BootstrapInto fills idx with len(idx) row indices sampled with
// replacement — Bootstrap's draws, into a buffer a boosting loop reuses
// for every tree.
func BootstrapInto(idx []int, rng *rand.Rand) {
	for i := range idx {
		idx[i] = rng.Intn(len(idx))
	}
}

// RelErr is Eq. 2: |t_pre - t_mea| / t_mea.
func RelErr(pred, meas float64) float64 {
	if meas == 0 {
		return math.Abs(pred)
	}
	return math.Abs(pred-meas) / math.Abs(meas)
}

// ErrStats summarizes a model's prediction errors over a test set.
type ErrStats struct {
	// Mean, Max and Min are over the per-sample Eq. 2 errors.
	Mean, Max, Min float64
	// N is the number of test samples.
	N int
}

// Accuracy returns 1 - Mean error, the paper's accuracy notion ("target
// accuracy such as 90%").
func (e ErrStats) Accuracy() float64 { return 1 - e.Mean }

// Evaluate computes Eq. 2 error statistics of m over ds. It scores the
// test set through PredictBatch, so batch-capable models are evaluated on
// their fast path (same errors bit-for-bit).
func Evaluate(m Model, ds *Dataset) ErrStats {
	if ds.Len() == 0 {
		return ErrStats{}
	}
	preds := make([]float64, ds.Len())
	PredictBatch(m, ds.Features, preds)
	errs := make([]float64, ds.Len())
	for i, p := range preds {
		errs[i] = RelErr(p, ds.Targets[i])
	}
	return ErrStats{
		Mean: stats.Mean(errs),
		Max:  stats.Max(errs),
		Min:  stats.Min(errs),
		N:    len(errs),
	}
}

// Standardizer centers and scales feature columns to zero mean and unit
// variance — the preprocessing ANN, SVM and RS need to behave on the mixed
// ranges of Table 2 (0–1 fractions next to 1024–12288 MB memories).
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-column statistics over ds.
func FitStandardizer(ds *Dataset) *Standardizer {
	d := ds.Dim()
	s := &Standardizer{Mean: make([]float64, d), Std: make([]float64, d)}
	n := float64(ds.Len())
	if n == 0 {
		return s
	}
	for _, row := range ds.Features {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range ds.Features {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s
}

// Apply returns the standardized copy of x.
func (s *Standardizer) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// ApplyAll standardizes a whole design matrix.
func (s *Standardizer) ApplyAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Apply(row)
	}
	return out
}
