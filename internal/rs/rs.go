// Package rs implements the response-surface baseline of §2.2.2 (the
// statistic-reasoning technique of [10]): a full second-order polynomial
// surface — intercept, linear, quadratic, and pairwise-interaction terms —
// fit by ridge-regularized least squares on standardized features.
package rs

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Options are the response-surface hyperparameters.
type Options struct {
	// Ridge is the L2 regularization strength (default 1e-3). The
	// second-order design has ~d²/2 columns, so some ridge is required.
	Ridge float64
	// NoInteractions drops the pairwise terms, leaving a pure quadratic.
	NoInteractions bool
	// NoLogTarget disables fitting log execution time.
	NoLogTarget bool
}

func (o Options) withDefaults() Options {
	if o.Ridge <= 0 {
		o.Ridge = 1e-3
	}
	return o
}

// Surface is a trained response surface implementing model.Model.
type Surface struct {
	std          *model.Standardizer
	beta         []float64
	interactions bool
	yMean, yStd  float64
	log          bool
	dim          int
}

// NumTerms returns the number of polynomial terms (including intercept).
func (s *Surface) NumTerms() int { return len(s.beta) }

// Predict evaluates the polynomial and returns seconds.
func (s *Surface) Predict(x []float64) float64 {
	z := s.std.Apply(x)
	phi := expand(z, s.interactions)
	v := 0.0
	for i, b := range s.beta {
		v += b * phi[i]
	}
	v = v*s.yStd + s.yMean
	if s.log {
		return math.Exp(v)
	}
	return v
}

// numTerms is the size of the d-feature basis expand builds.
func numTerms(d int, interactions bool) int {
	n := 1 + 2*d
	if interactions {
		n += d * (d - 1) / 2
	}
	return n
}

// expand maps z to the second-order basis: 1, z_i, z_i², z_i z_j (i<j).
func expand(z []float64, interactions bool) []float64 {
	d := len(z)
	phi := make([]float64, 0, numTerms(d, interactions))
	phi = append(phi, 1)
	phi = append(phi, z...)
	for _, v := range z {
		phi = append(phi, v*v)
	}
	if interactions {
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				phi = append(phi, z[i]*z[j])
			}
		}
	}
	return phi
}

// Train fits the response surface to ds.
func Train(ds *model.Dataset, opt Options) (*Surface, error) {
	opt = opt.withDefaults()
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("rs: %w", err)
	}
	n := ds.Len()
	if n < 5 {
		return nil, fmt.Errorf("rs: %d samples is too few", n)
	}
	std := model.FitStandardizer(ds)
	X := std.ApplyAll(ds.Features)
	y := make([]float64, n)
	for i, t := range ds.Targets {
		if opt.NoLogTarget {
			y[i] = t
		} else {
			y[i] = math.Log(math.Max(1e-9, t))
		}
	}
	yMean, yStd := meanStd(y)
	for i := range y {
		y[i] = (y[i] - yMean) / yStd
	}

	// Build the design and the normal equations A β = b with ridge.
	p0 := expand(X[0], !opt.NoInteractions)
	p := len(p0)
	A := make([][]float64, p)
	for i := range A {
		A[i] = make([]float64, p)
	}
	b := make([]float64, p)
	phi := p0
	for i := 0; i < n; i++ {
		if i > 0 {
			phi = expand(X[i], !opt.NoInteractions)
		}
		for r, vr := range phi {
			row := A[r]
			for c := r; c < p; c++ {
				row[c] += vr * phi[c]
			}
			b[r] += vr * y[i]
		}
	}
	for r := 0; r < p; r++ {
		for c := 0; c < r; c++ {
			A[r][c] = A[c][r]
		}
		A[r][r] += opt.Ridge * float64(n)
	}
	beta, ok := cholSolve(A, b)
	if !ok {
		return nil, fmt.Errorf("rs: normal equations not positive definite (try larger Ridge)")
	}
	return &Surface{
		std: std, beta: beta, interactions: !opt.NoInteractions,
		yMean: yMean, yStd: yStd, log: !opt.NoLogTarget, dim: ds.Dim(),
	}, nil
}

// cholSolve solves the symmetric positive definite system Ax=b via
// Cholesky decomposition, in place on a copy.
func cholSolve(A [][]float64, b []float64) ([]float64, bool) {
	n := len(A)
	L := make([][]float64, n)
	for i := range L {
		L[i] = make([]float64, i+1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := A[i][j]
			for k := 0; k < j; k++ {
				s -= L[i][k] * L[j][k]
			}
			if i == j {
				if s <= 0 {
					return nil, false
				}
				L[i][i] = math.Sqrt(s)
			} else {
				L[i][j] = s / L[j][j]
			}
		}
	}
	// Forward substitution L z = b.
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= L[i][k] * z[k]
		}
		z[i] = s / L[i][i]
	}
	// Back substitution Lᵀ x = z.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < n; k++ {
			s -= L[k][i] * x[k]
		}
		x[i] = s / L[i][i]
	}
	return x, true
}

func meanStd(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	s := math.Sqrt(v / float64(len(xs)))
	if s < 1e-12 {
		s = 1
	}
	return m, s
}
