// Package svm implements the support-vector-machine baseline of §2.2.2
// (the technique of [19]): ε-insensitive support vector regression with an
// RBF kernel, trained by stochastic subgradient descent over the dual
// coefficients with a precomputed kernel matrix.
package svm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/model"
)

// Options are the SVR hyperparameters. The zero value selects C=10,
// ε=0.05, an RBF bandwidth of 1/d, and 30 epochs.
type Options struct {
	// C is the regularization trade-off.
	C float64
	// Epsilon is the insensitive-tube half-width (in fit space).
	Epsilon float64
	// Gamma is the RBF bandwidth; 0 selects 1/d.
	Gamma float64
	// Epochs is the number of passes over the training set.
	Epochs int
	// NoLogTarget disables fitting log execution time.
	NoLogTarget bool
	// Seed drives sample ordering.
	Seed int64
}

func (o Options) withDefaults(d int) Options {
	if o.C <= 0 {
		o.C = 10
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.05
	}
	if o.Gamma <= 0 {
		o.Gamma = 1 / float64(d)
	}
	if o.Epochs <= 0 {
		o.Epochs = 30
	}
	return o
}

// SVR is a trained support vector regressor implementing model.Model.
type SVR struct {
	std   *model.Standardizer
	sv    [][]float64 // standardized support vectors
	alpha []float64   // dual coefficients (α - α*)
	bias  float64
	gamma float64
	yMean float64
	yStd  float64
	log   bool
}

// NumSupportVectors returns the count of samples with nonzero dual
// coefficients.
func (s *SVR) NumSupportVectors() int {
	c := 0
	for _, a := range s.alpha {
		if a != 0 {
			c++
		}
	}
	return c
}

// Predict evaluates the kernel expansion and returns seconds.
func (s *SVR) Predict(x []float64) float64 {
	z := s.std.Apply(x)
	f := s.bias
	for i, v := range s.sv {
		if s.alpha[i] == 0 {
			continue
		}
		f += s.alpha[i] * rbf(z, v, s.gamma)
	}
	v := f*s.yStd + s.yMean
	if s.log {
		return math.Exp(v)
	}
	return v
}

func rbf(a, b []float64, gamma float64) float64 {
	d := 0.0
	for i := range a {
		t := a[i] - b[i]
		d += t * t
	}
	return math.Exp(-gamma * d)
}

// Train fits an ε-SVR to ds.
func Train(ds *model.Dataset, opt Options) (*SVR, error) {
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("svm: %w", err)
	}
	n := ds.Len()
	if n < 5 {
		return nil, fmt.Errorf("svm: %d samples is too few", n)
	}
	opt = opt.withDefaults(ds.Dim())
	rng := rand.New(rand.NewSource(opt.Seed))

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

	// Precompute the kernel matrix (n is a few thousand at most here).
	K := make([][]float64, n)
	for i := range K {
		K[i] = make([]float64, n)
		K[i][i] = 1
		for j := 0; j < i; j++ {
			v := rbf(X[i], X[j], opt.Gamma)
			K[i][j], K[j][i] = v, v
		}
	}

	// Kernelized stochastic subgradient on the ε-insensitive loss:
	// maintain f(x_i) incrementally as α updates.
	alpha := make([]float64, n)
	f := make([]float64, n)
	bias := 0.0
	order := rng.Perm(n)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		lr := 0.5 / (1 + float64(epoch))
		shuffle(order, rng)
		for _, i := range order {
			err := y[i] - (f[i] + bias)
			var g float64
			switch {
			case err > opt.Epsilon:
				g = lr * math.Min(opt.C, err)
			case err < -opt.Epsilon:
				g = lr * math.Max(-opt.C, err)
			default:
				// Inside the tube: shrink toward sparsity.
				g = -lr * 0.01 * alpha[i]
			}
			if g == 0 {
				continue
			}
			alpha[i] += g
			// Box constraint on the dual coefficient.
			if alpha[i] > opt.C {
				g -= alpha[i] - opt.C
				alpha[i] = opt.C
			} else if alpha[i] < -opt.C {
				g -= alpha[i] + opt.C
				alpha[i] = -opt.C
			}
			ki := K[i]
			for j := range f {
				f[j] += g * ki[j]
			}
			bias += lr * 0.1 * (y[i] - (f[i] + bias))
		}
	}

	// Drop negligible coefficients to keep prediction cheap.
	s := &SVR{std: std, gamma: opt.Gamma, bias: bias, yMean: yMean, yStd: yStd, log: !opt.NoLogTarget}
	for i, a := range alpha {
		if math.Abs(a) > 1e-6 {
			s.sv = append(s.sv, X[i])
			s.alpha = append(s.alpha, a)
		}
	}
	return s, nil
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

func shuffle(idx []int, rng *rand.Rand) {
	for i := len(idx) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}
