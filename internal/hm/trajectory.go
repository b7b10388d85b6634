package hm

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/model"
	"repro/internal/tree"
)

// Trajectory trains a single first-order model with up to
// max(checkpoints) trees — no early stopping — and returns the mean Eq. 2
// validation error at each checkpoint. It regenerates Fig. 8's
// error-versus-nt curves for a given learning rate and tree complexity
// without retraining a model per point.
func Trajectory(ds *model.Dataset, opt Options, checkpoints []int) ([]float64, error) {
	if len(checkpoints) == 0 {
		return nil, fmt.Errorf("hm: no checkpoints")
	}
	opt = opt.withDefaults()
	sorted := append([]int(nil), checkpoints...)
	sort.Ints(sorted)
	if sorted[0] < 1 {
		return nil, fmt.Errorf("hm: checkpoint %d < 1", sorted[0])
	}
	opt.Trees = sorted[len(sorted)-1]
	if err := opt.check(); err != nil {
		return nil, err
	}

	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("hm: %w", err)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	trainDS, valDS := ds.Split(1-opt.ValFrac, rng)
	t := newTrainer(trainDS, valDS, opt)

	n := trainDS.Len()
	sum := 0.0
	for _, v := range t.yFit {
		sum += v
	}
	base := sum / float64(n)
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	valPred := make([]float64, valDS.Len())
	for i := range valPred {
		valPred[i] = base
	}
	resid := make([]float64, n)
	idx := make([]int, n)
	gOpt := tree.Options{MaxSplits: opt.TreeComplexity, MinLeaf: opt.MinLeaf, Workers: opt.workers()}

	errAt := make(map[int]float64, len(sorted))
	next := 0
	for k := 1; k <= opt.Trees && next < len(sorted); k++ {
		for i := range resid {
			resid[i] = t.yFit[i] - pred[i]
		}
		model.BootstrapInto(idx, rng)
		tr := t.builder.Grow(resid, idx, gOpt, rng)
		t.update(tr, opt.LearningRate, pred, valPred)
		for next < len(sorted) && sorted[next] == k {
			errAt[k] = t.relErr(valPred)
			next++
		}
	}
	out := make([]float64, len(checkpoints))
	for i, c := range checkpoints {
		e, ok := errAt[c]
		if !ok {
			return nil, fmt.Errorf("hm: internal: checkpoint %d not recorded", c)
		}
		out[i] = e
	}
	return out, nil
}
