// Package ann implements the artificial-neural-network baseline of §2.2.2
// (the technique of [21]): a fully connected multilayer perceptron trained
// with mini-batch SGD and momentum on standardized features, predicting
// (log) execution time.
package ann

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/model"
)

// Options are the network hyperparameters. The zero value selects two
// hidden layers of 32 and 16 tanh units, 400 epochs, learning rate 0.01.
type Options struct {
	// Hidden lists hidden-layer widths.
	Hidden []int
	// Epochs is the number of passes over the training set.
	Epochs int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the SGD momentum coefficient.
	Momentum float64
	// Batch is the mini-batch size.
	Batch int
	// L2 is the weight-decay coefficient.
	L2 float64
	// NoLogTarget disables fitting log execution time.
	NoLogTarget bool
	// Seed drives initialization and shuffling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if len(o.Hidden) == 0 {
		o.Hidden = []int{32, 16}
	}
	if o.Epochs <= 0 {
		o.Epochs = 400
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.01
	}
	if o.Momentum <= 0 {
		o.Momentum = 0.9
	}
	if o.Batch <= 0 {
		o.Batch = 32
	}
	if o.L2 < 0 {
		o.L2 = 0
	}
	return o
}

// layer is one dense layer: out = act(W·in + b).
type layer struct {
	w      [][]float64 // [out][in]
	b      []float64
	vw     [][]float64 // momentum buffers
	vb     []float64
	linear bool // output layer has no activation
}

// Network is a trained MLP implementing model.Model.
type Network struct {
	layers []*layer
	std    *model.Standardizer
	yMean  float64
	yStd   float64
	log    bool
}

// Predict runs a forward pass and returns seconds.
func (n *Network) Predict(x []float64) float64 {
	a := n.std.Apply(x)
	for _, l := range n.layers {
		a = l.forward(a)
	}
	v := a[0]*n.yStd + n.yMean
	if n.log {
		return math.Exp(v)
	}
	return v
}

func (l *layer) forward(in []float64) []float64 {
	out := make([]float64, len(l.w))
	for o := range l.w {
		s := l.b[o]
		row := l.w[o]
		for i, v := range in {
			s += row[i] * v
		}
		if l.linear {
			out[o] = s
		} else {
			out[o] = math.Tanh(s)
		}
	}
	return out
}

// Train fits an MLP to ds.
func Train(ds *model.Dataset, opt Options) (*Network, error) {
	opt = opt.withDefaults()
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("ann: %w", err)
	}
	n := ds.Len()
	if n < 5 {
		return nil, fmt.Errorf("ann: %d samples is too few", n)
	}
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

	net := &Network{std: std, yMean: yMean, yStd: yStd, log: !opt.NoLogTarget}
	sizes := append([]int{ds.Dim()}, opt.Hidden...)
	sizes = append(sizes, 1)
	for li := 1; li < len(sizes); li++ {
		net.layers = append(net.layers, newLayer(sizes[li-1], sizes[li], li == len(sizes)-1, rng))
	}

	// Mini-batch SGD with momentum.
	order := rng.Perm(n)
	acts := make([][]float64, len(net.layers)+1)
	deltas := make([][]float64, len(net.layers))
	for li, l := range net.layers {
		deltas[li] = make([]float64, len(l.w))
	}
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		shuffle(order, rng)
		lr := opt.LearningRate / (1 + 0.01*float64(epoch))
		for start := 0; start < n; start += opt.Batch {
			end := start + opt.Batch
			if end > n {
				end = n
			}
			batchLR := lr / float64(end-start)
			for _, idx := range order[start:end] {
				// Forward.
				acts[0] = X[idx]
				for li, l := range net.layers {
					acts[li+1] = l.forward(acts[li])
				}
				// Backward (squared loss).
				out := acts[len(acts)-1][0]
				deltas[len(deltas)-1][0] = out - y[idx]
				for li := len(net.layers) - 2; li >= 0; li-- {
					l := net.layers[li]
					next := net.layers[li+1]
					for o := range l.w {
						s := 0.0
						for no := range next.w {
							s += next.w[no][o] * deltas[li+1][no]
						}
						a := acts[li+1][o]
						deltas[li][o] = s * (1 - a*a) // tanh'
					}
				}
				// Update with momentum.
				for li, l := range net.layers {
					in := acts[li]
					for o := range l.w {
						g := deltas[li][o]
						for i := range l.w[o] {
							l.vw[o][i] = opt.Momentum*l.vw[o][i] - batchLR*(g*in[i]+opt.L2*l.w[o][i])
							l.w[o][i] += l.vw[o][i]
						}
						l.vb[o] = opt.Momentum*l.vb[o] - batchLR*g
						l.b[o] += l.vb[o]
					}
				}
			}
		}
	}
	return net, nil
}

func newLayer(in, out int, linear bool, rng *rand.Rand) *layer {
	l := &layer{
		w:      make([][]float64, out),
		b:      make([]float64, out),
		vw:     make([][]float64, out),
		vb:     make([]float64, out),
		linear: linear,
	}
	scale := math.Sqrt(2.0 / float64(in+out)) // Glorot
	for o := range l.w {
		l.w[o] = make([]float64, in)
		l.vw[o] = make([]float64, in)
		for i := range l.w[o] {
			l.w[o][i] = rng.NormFloat64() * scale
		}
	}
	return l
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
