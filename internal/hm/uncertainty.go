package hm

import "math"

// PredictWithUncertainty returns the model's prediction in seconds plus a
// dispersion estimate: the spread of the independently-trained first-order
// sub-models' predictions (in fit space, mapped back to seconds). A model
// of order 1 has a single sub-model and reports zero dispersion.
//
// The dispersion powers robust searching (core.Options.RobustSearch): a
// genetic algorithm minimizing a point prediction gravitates to regions
// where the model is optimistically wrong; penalizing disagreement between
// sub-models counters that exploitation. This is an extension beyond the
// paper, motivated by the reproduction's own Fig. 12b analysis.
func (m *Model) PredictWithUncertainty(x []float64) (pred, std float64) {
	if len(m.subs) == 0 {
		return 0, 0
	}
	b := m.ens.space.encode([][]float64{x})
	vs := make([]float64, len(m.subs))
	for j := range vs {
		m.ens.predictSub(&b, j, vs[j:j+1])
	}
	// Mean in fit space, matching Predict.
	mean := 0.0
	for i, v := range vs {
		mean += m.coefs[i] * v
	}
	if len(m.subs) == 1 {
		if m.log {
			return math.Exp(mean), 0
		}
		return mean, 0
	}
	// Dispersion of the (unweighted) sub-model predictions around their
	// own mean: the coefficients absorb scale, so raw predictions are
	// compared directly.
	sum, sumSq := 0.0, 0.0
	for _, v := range vs {
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
		// Delta method: std in seconds ≈ exp(mean)·std(log).
		return p, p * sd
	}
	return mean, sd
}

// NumSubModels returns how many first-order models the hierarchical blend
// holds (its order).
func (m *Model) NumSubModels() int { return len(m.subs) }
