package tree

import (
	"math"
	"math/rand"
)

// exactGrow is the reference split search the fast path (hist.go) is
// measured against (DESIGN.md §13): best-first growth to the same
// budget, where every scanned node accumulates its own histogram one
// feature at a time straight from its rows and scores candidate splits
// with plain divisions. It draws the same rng.Perm per scanned node as
// Grow's sampled path, and skips the children of the budget's final
// split as Grow does, so both consume rng identically.
func exactGrow(b *Builder, y []float64, idx []int, opt Options, rng *rand.Rand) *Tree {
	type leaf struct {
		node         int32
		idx          []int
		gain         float64
		feature, bin int
	}
	t := &Tree{}
	if len(idx) == 0 {
		t.addLeaf(0)
		return t
	}
	search := func(l *leaf) { l.gain, l.feature, l.bin = exactSplit(b, y, l.idx, opt, rng) }
	root := &leaf{node: t.addLeaf(meanAt(y, idx)), idx: idx}
	search(root)
	leaves := []*leaf{root}
	for splits := 0; splits < opt.maxSplits(); splits++ {
		best := -1
		for i, l := range leaves {
			if l.gain > 0 && (best < 0 || l.gain > leaves[best].gain) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		l := leaves[best]
		var li, ri []int
		for _, i := range l.idx {
			if b.code(l.feature, i) <= uint8(l.bin) {
				li = append(li, i)
			} else {
				ri = append(ri, i)
			}
		}
		left := &leaf{node: t.addLeaf(meanAt(y, li)), idx: li}
		right := &leaf{node: t.addLeaf(meanAt(y, ri)), idx: ri}
		t.setSplit(l.node, l.feature, b.edges[l.feature][l.bin], left.node, right.node)
		if splits+1 < opt.maxSplits() {
			search(left)
			search(right)
		}
		leaves[best] = left
		leaves = append(leaves, right)
	}
	return t
}

// exactSplit scans idx's histogram statistics for the SSE-reducing
// split, returning the gain (variance reduction × n, 0 if none), the
// feature and the bin whose edge is the threshold. Features are scanned
// in order and ties keep the first maximum.
func exactSplit(b *Builder, y []float64, idx []int, opt Options, rng *rand.Rand) (gain float64, feature, bin int) {
	nTot, minLeaf := len(idx), opt.minLeaf()
	if nTot < 2*minLeaf {
		return 0, -1, -1
	}
	sumTot := 0.0
	for _, i := range idx {
		sumTot += y[i]
	}
	feats := b.allFeatures
	if opt.FeatureFrac > 0 && opt.FeatureFrac < 1 && rng != nil {
		mtry := max(1, int(opt.FeatureFrac*float64(b.d)+0.5))
		feats = rng.Perm(b.d)[:mtry]
	}
	baseScore := sumTot * sumTot / float64(nTot)
	var cnt [maxBins]int
	var sum [maxBins]float64
	feature, bin = -1, -1
	for _, f := range feats {
		nb := len(b.edges[f]) + 1
		for k := 0; k < nb; k++ {
			cnt[k], sum[k] = 0, 0
		}
		col, t := b.column(f)
		for _, i := range idx {
			k := col[i] >> t & (maxBins - 1)
			cnt[k]++
			sum[k] += y[i]
		}
		nL, sL := 0, 0.0
		for k := 0; k < nb-1; k++ { // split at edge k: bins <= k go left
			nL += cnt[k]
			sL += sum[k]
			nR := nTot - nL
			if nL < minLeaf || nR < minLeaf {
				continue
			}
			sR := sumTot - sL
			score := sL*sL/float64(nL) + sR*sR/float64(nR)
			if g := score - baseScore; g > gain {
				gain, feature, bin = g, f, k
			}
		}
	}
	if feature < 0 || math.IsNaN(gain) || gain <= 1e-12 {
		return 0, -1, -1
	}
	return gain, feature, bin
}
