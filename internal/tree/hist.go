package tree

// This file is the fast histogram split search: flat structure-of-arrays
// bin statistics, sibling-histogram subtraction, and a feature-parallel
// build — Grow's only split search. The plain per-node exact scan it
// replaced lives on as a test oracle (exact_test.go); the contract
// between the two — where they are bit-identical and where only a
// tolerance holds — is DESIGN.md §13.

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// hist holds one node's split statistics in a flat SoA layout: the p'th
// candidate feature's bins occupy [p*maxBins, (p+1)*maxBins) of both
// planes. Counts subtract exactly, so a derived sibling's counts — and
// with them minLeaf feasibility — match a direct accumulation
// bit-for-bit, while derived sums can differ in the last bits.
// Per-bin sum-of-squares is not tracked: the split objective compares
// parent and children SSE, and the Σy² term is common to both sides of
// that difference, so it cancels out of every gain.
type hist struct {
	sum []float64
	cnt []int32
}

func newHist(nFeats int) *hist {
	n := nFeats * maxBins
	return &hist{sum: make([]float64, n), cnt: make([]int32, n)}
}

// clear zeroes both planes (whole-slice loops compile to memclr).
func (h *hist) clear() {
	for i := range h.sum {
		h.sum[i] = 0
	}
	for i := range h.cnt {
		h.cnt[i] = 0
	}
}

// sub derives the sibling histogram in place: h -= o, the
// parent-minus-child trick that replaces a scan over the larger child's
// rows with two flat subtraction loops.
func (h *hist) sub(o *hist) {
	hs := h.sum
	for i, v := range o.sum {
		hs[i] -= v
	}
	hc := h.cnt
	for i, v := range o.cnt {
		hc[i] -= v
	}
}

// getHist returns a zeroed full-width histogram from the builder's pool.
func (b *Builder) getHist() *hist {
	h := b.histPool.Get().(*hist)
	h.clear()
	return h
}

func (b *Builder) putHist(h *hist) { b.histPool.Put(h) }

// accumulate adds idx's rows into h for feats, whose first feature owns
// block pos of h. Features are processed four at a time so each row's
// index and target load feeds four independent accumulation chains; per
// (feature, bin) slot the additions still happen in idx order, exactly
// as in the reference scan, so directly-built histograms carry
// bit-identical sums.
func (b *Builder) accumulate(h *hist, y []float64, idx []int, feats []int, pos int) {
	// Bin codes are < maxBins by construction (at most maxBins-1 edges),
	// so masking with maxBins-1 is a no-op that, combined with the
	// fixed-size array views, lets the compiler drop every bounds check
	// in the inner loop.
	g := 0
	for ; g+8 <= len(feats); g += 8 {
		base := (pos + g) * maxBins
		s0 := (*[maxBins]float64)(h.sum[base:])
		s1 := (*[maxBins]float64)(h.sum[base+maxBins:])
		s2 := (*[maxBins]float64)(h.sum[base+2*maxBins:])
		s3 := (*[maxBins]float64)(h.sum[base+3*maxBins:])
		s4 := (*[maxBins]float64)(h.sum[base+4*maxBins:])
		s5 := (*[maxBins]float64)(h.sum[base+5*maxBins:])
		s6 := (*[maxBins]float64)(h.sum[base+6*maxBins:])
		s7 := (*[maxBins]float64)(h.sum[base+7*maxBins:])
		n0 := (*[maxBins]int32)(h.cnt[base:])
		n1 := (*[maxBins]int32)(h.cnt[base+maxBins:])
		n2 := (*[maxBins]int32)(h.cnt[base+2*maxBins:])
		n3 := (*[maxBins]int32)(h.cnt[base+3*maxBins:])
		n4 := (*[maxBins]int32)(h.cnt[base+4*maxBins:])
		n5 := (*[maxBins]int32)(h.cnt[base+5*maxBins:])
		n6 := (*[maxBins]int32)(h.cnt[base+6*maxBins:])
		n7 := (*[maxBins]int32)(h.cnt[base+7*maxBins:])
		c0 := b.binned[feats[g]]
		c1 := b.binned[feats[g+1]]
		c2 := b.binned[feats[g+2]]
		c3 := b.binned[feats[g+3]]
		c4 := b.binned[feats[g+4]]
		c5 := b.binned[feats[g+5]]
		c6 := b.binned[feats[g+6]]
		c7 := b.binned[feats[g+7]]
		for _, i := range idx {
			yi := y[i]
			k0 := c0[i] & (maxBins - 1)
			s0[k0] += yi
			n0[k0]++
			k1 := c1[i] & (maxBins - 1)
			s1[k1] += yi
			n1[k1]++
			k2 := c2[i] & (maxBins - 1)
			s2[k2] += yi
			n2[k2]++
			k3 := c3[i] & (maxBins - 1)
			s3[k3] += yi
			n3[k3]++
			k4 := c4[i] & (maxBins - 1)
			s4[k4] += yi
			n4[k4]++
			k5 := c5[i] & (maxBins - 1)
			s5[k5] += yi
			n5[k5]++
			k6 := c6[i] & (maxBins - 1)
			s6[k6] += yi
			n6[k6]++
			k7 := c7[i] & (maxBins - 1)
			s7[k7] += yi
			n7[k7]++
		}
	}
	for ; g+4 <= len(feats); g += 4 {
		base := (pos + g) * maxBins
		s0 := (*[maxBins]float64)(h.sum[base:])
		s1 := (*[maxBins]float64)(h.sum[base+maxBins:])
		s2 := (*[maxBins]float64)(h.sum[base+2*maxBins:])
		s3 := (*[maxBins]float64)(h.sum[base+3*maxBins:])
		n0 := (*[maxBins]int32)(h.cnt[base:])
		n1 := (*[maxBins]int32)(h.cnt[base+maxBins:])
		n2 := (*[maxBins]int32)(h.cnt[base+2*maxBins:])
		n3 := (*[maxBins]int32)(h.cnt[base+3*maxBins:])
		c0 := b.binned[feats[g]]
		c1 := b.binned[feats[g+1]]
		c2 := b.binned[feats[g+2]]
		c3 := b.binned[feats[g+3]]
		for _, i := range idx {
			yi := y[i]
			k0 := c0[i] & (maxBins - 1)
			s0[k0] += yi
			n0[k0]++
			k1 := c1[i] & (maxBins - 1)
			s1[k1] += yi
			n1[k1]++
			k2 := c2[i] & (maxBins - 1)
			s2[k2] += yi
			n2[k2]++
			k3 := c3[i] & (maxBins - 1)
			s3[k3] += yi
			n3[k3]++
		}
	}
	for ; g < len(feats); g++ {
		base := (pos + g) * maxBins
		s := (*[maxBins]float64)(h.sum[base:])
		n := (*[maxBins]int32)(h.cnt[base:])
		col := b.binned[feats[g]]
		for _, i := range idx {
			k := col[i] & (maxBins - 1)
			s[k] += y[i]
			n[k]++
		}
	}
}

// isIdentity reports whether idx is exactly 0..len(idx)-1 — the
// all-rows sample boosting passes for every root histogram.
func isIdentity(idx []int) bool {
	for i, v := range idx {
		if v != i {
			return false
		}
	}
	return true
}

// accumulateDenseSums is accumulate for the identity sample
// (idx = 0..n-1), sums plane only: the caller pre-fills the count plane
// from the builder's static rootCnt, so each row costs one float add
// per feature, and ranging over the rows directly lets the compiler
// drop the per-row bounds checks an arbitrary idx forces. Rows are
// visited in the same ascending order, so the sums are bit-identical
// to accumulate's over the identity idx.
func (b *Builder) accumulateDenseSums(h *hist, y []float64, feats []int, pos int) {
	n := b.n
	y = y[:n]
	g := 0
	for ; g+8 <= len(feats); g += 8 {
		base := (pos + g) * maxBins
		s0 := (*[maxBins]float64)(h.sum[base:])
		s1 := (*[maxBins]float64)(h.sum[base+maxBins:])
		s2 := (*[maxBins]float64)(h.sum[base+2*maxBins:])
		s3 := (*[maxBins]float64)(h.sum[base+3*maxBins:])
		s4 := (*[maxBins]float64)(h.sum[base+4*maxBins:])
		s5 := (*[maxBins]float64)(h.sum[base+5*maxBins:])
		s6 := (*[maxBins]float64)(h.sum[base+6*maxBins:])
		s7 := (*[maxBins]float64)(h.sum[base+7*maxBins:])
		c0 := b.binned[feats[g]][:n]
		c1 := b.binned[feats[g+1]][:n]
		c2 := b.binned[feats[g+2]][:n]
		c3 := b.binned[feats[g+3]][:n]
		c4 := b.binned[feats[g+4]][:n]
		c5 := b.binned[feats[g+5]][:n]
		c6 := b.binned[feats[g+6]][:n]
		c7 := b.binned[feats[g+7]][:n]
		for i, yi := range y {
			k0 := c0[i] & (maxBins - 1)
			s0[k0] += yi
			k1 := c1[i] & (maxBins - 1)
			s1[k1] += yi
			k2 := c2[i] & (maxBins - 1)
			s2[k2] += yi
			k3 := c3[i] & (maxBins - 1)
			s3[k3] += yi
			k4 := c4[i] & (maxBins - 1)
			s4[k4] += yi
			k5 := c5[i] & (maxBins - 1)
			s5[k5] += yi
			k6 := c6[i] & (maxBins - 1)
			s6[k6] += yi
			k7 := c7[i] & (maxBins - 1)
			s7[k7] += yi
		}
	}
	for ; g+4 <= len(feats); g += 4 {
		base := (pos + g) * maxBins
		s0 := (*[maxBins]float64)(h.sum[base:])
		s1 := (*[maxBins]float64)(h.sum[base+maxBins:])
		s2 := (*[maxBins]float64)(h.sum[base+2*maxBins:])
		s3 := (*[maxBins]float64)(h.sum[base+3*maxBins:])
		c0 := b.binned[feats[g]][:n]
		c1 := b.binned[feats[g+1]][:n]
		c2 := b.binned[feats[g+2]][:n]
		c3 := b.binned[feats[g+3]][:n]
		for i, yi := range y {
			k0 := c0[i] & (maxBins - 1)
			s0[k0] += yi
			k1 := c1[i] & (maxBins - 1)
			s1[k1] += yi
			k2 := c2[i] & (maxBins - 1)
			s2[k2] += yi
			k3 := c3[i] & (maxBins - 1)
			s3[k3] += yi
		}
	}
	for ; g < len(feats); g++ {
		base := (pos + g) * maxBins
		s := (*[maxBins]float64)(h.sum[base:])
		col := b.binned[feats[g]][:n]
		for i, yi := range y {
			k := col[i] & (maxBins - 1)
			s[k] += yi
		}
	}
}

// buildHist accumulates idx's statistics for feats into h (which must
// be zeroed), sharding contiguous feature chunks across up to workers
// goroutines on large nodes. Every worker writes a disjoint block of h,
// so the histogram is bit-identical for any worker count.
func (b *Builder) buildHist(h *hist, y []float64, idx []int, feats []int, workers int) {
	b.histBuilt.Inc()
	// The all-rows identity sample — what boosting passes for every root
	// histogram — skips count accumulation entirely (counts are static
	// per builder: the cached rootCnt plane) and runs the sums-only,
	// bounds-check-free dense pass; the O(n) detection is negligible
	// against the n×features build.
	dense := len(idx) == b.n && isIdentity(idx)
	if dense {
		for p, f := range feats {
			copy(h.cnt[p*maxBins:(p+1)*maxBins], b.rootCnt[f*maxBins:(f+1)*maxBins])
		}
	}
	if workers > len(feats) {
		workers = len(feats)
	}
	if workers <= 1 || len(idx)*len(feats) < parallelScanMinWork {
		if dense {
			b.accumulateDenseSums(h, y, feats, 0)
		} else {
			b.accumulate(h, y, idx, feats, 0)
		}
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		lo := c * len(feats) / workers
		hi := (c + 1) * len(feats) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if dense {
				b.accumulateDenseSums(h, y, feats[lo:hi], lo)
			} else {
				b.accumulate(h, y, idx, feats[lo:hi], lo)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// recipTable returns [0, 1/1, 1/2, ..., 1/n] — the fast scan's
// replacement for its two per-bin divisions, which otherwise bound the
// scan on divider throughput.
func recipTable(n int) []float64 {
	t := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		t[k] = 1 / float64(k)
	}
	return t
}

// scanHist finds the best split over h, whose p'th block holds feats[p]'s
// bins, returning the winning position within feats (-1 if none) and the
// winning split's left-side row count (so the caller's partition can
// skip its counting pass). Features are visited in order and ties keep
// the first maximum — the reference scan's tie-breaking rule. The score
// uses table-lookup reciprocal multiplies (sL²·recip[nL] instead of
// sL²/nL), which differ from the reference's divisions in the last
// bits: gains agree with the exact oracle only within rounding tolerance,
// part of the fast path's documented contract (DESIGN.md §13).
func (b *Builder) scanHist(h *hist, feats []int, recip []float64, sumTot float64, nTot, minLeaf int) (gain float64, pos, bin, nLBest int) {
	baseScore := sumTot * sumTot / float64(nTot)
	pos, bin = -1, -1
	for p, f := range feats {
		edges := b.edges[f]
		if len(edges) == 0 {
			continue // constant feature
		}
		base := p * maxBins
		sum := (*[maxBins]float64)(h.sum[base:])
		cnt := (*[maxBins]int32)(h.cnt[base:])
		nL, sL := 0, 0.0
		for k := 0; k < len(edges); k++ { // split at edge k: bins <= k go left
			kk := k & (maxBins - 1)
			c := int(cnt[kk])
			if c == 0 {
				// Empty bin: (nL, sL) and therefore the score are unchanged
				// from the previous bin, so this split can never strictly
				// beat an already-seen one (and an all-empty prefix has
				// nL = 0 < minLeaf). Skipping preserves the first-maximum
				// winner exactly.
				continue
			}
			nL += c
			sL += sum[kk]
			nR := nTot - nL
			if nL < minLeaf || nR < minLeaf {
				continue
			}
			sR := sumTot - sL
			score := sL*sL*recip[nL] + sR*sR*recip[nR]
			if g := score - baseScore; g > gain {
				gain, pos, bin, nLBest = g, p, k, nL
			}
		}
	}
	return gain, pos, bin, nLBest
}

// sparseScanMaxRows is the node size below which the sampled-feature
// path scans only the bins the node actually touches: with fewer rows
// than bins, zeroing and scanning all maxBins slots per feature costs
// more than the accumulation itself.
const sparseScanMaxRows = 32

// scanFeaturesSparse is the small-node split scan for sampled features
// (len(idx) <= sparseScanMaxRows). Per feature it accumulates into
// stack histograms while marking touched bins in a uint64 bitmask
// (maxBins is exactly 64), then walks the set bits in ascending order —
// sorted iteration for free, no per-row branch — and re-zeroes only
// what it touched. The cumulative (nL, sL) state is constant across a
// run of untouched bins, so the dense scan's first maximum always lands
// on a touched bin (the all-untouched prefix has nL = 0 < minLeaf):
// results are identical to scanning every bin. Like scanHist it scores
// with reciprocal-table multiplies, so gains match the exact reference
// only within tolerance.
func (b *Builder) scanFeaturesSparse(y []float64, idx []int, feats []int, recip []float64, sumTot float64, nTot, minLeaf int) (gain float64, pos, bin, nLBest int) {
	baseScore := sumTot * sumTot / float64(nTot)
	var cnt [maxBins]int32
	var sum [maxBins]float64
	pos, bin = -1, -1
	for p, f := range feats {
		edges := b.edges[f]
		if len(edges) == 0 {
			continue // constant feature
		}
		col := b.binned[f]
		var mask uint64
		for _, i := range idx {
			k := col[i] & (maxBins - 1)
			mask |= 1 << k
			cnt[k]++
			sum[k] += y[i]
		}
		nL, sL := 0, 0.0
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			nL += int(cnt[k])
			sL += sum[k]
			if k >= len(edges) {
				break // overflow bin: no edge to split at
			}
			nR := nTot - nL
			if nL < minLeaf || nR < minLeaf {
				continue
			}
			sR := sumTot - sL
			score := sL*sL*recip[nL] + sR*sR*recip[nR]
			if g := score - baseScore; g > gain {
				gain, pos, bin, nLBest = g, p, k, nL
			}
		}
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			cnt[k], sum[k] = 0, 0
		}
	}
	return gain, pos, bin, nLBest
}

// permInto fills m with exactly rand.Perm(len(m))'s output — same
// values, same rng consumption — without allocating, so the sampled
// fast path draws the same feature subsets, in the same rng sequence
// position, as the exact reference.
func permInto(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// grower is one Grow call's split-finding state. It dispatches each
// leaf's search to one of two paths:
//
//   - subtract: no feature sampling — every expandable leaf retains its
//     histogram, and each split builds only the smaller child's
//     histogram directly, deriving the larger as parent − sibling;
//   - sampled: per-node feature subsets (random forests) — subtraction
//     is impossible because the parent's histogram covers different
//     features, so each node builds its own over a reused scratch
//     histogram, with the touched-bins scan for small nodes.
type grower struct {
	b   *Builder
	y   []float64
	opt Options
	rng *rand.Rand

	subtract bool
	feats    []int     // candidate features in subtract mode (all of them)
	mtry     int       // sampled feature count in sampled mode
	perm     []int     // sampled mode: reusable feature permutation
	scratch  *hist     // sampled mode: reusable dense histogram
	recip    []float64 // reciprocal table covering every possible nL/nR
}

// init configures the grower for one Grow call over rootRows rows.
func (g *grower) init(rootRows int) {
	g.recip = g.b.recip
	if rootRows >= len(g.recip) {
		// Bootstrap samples larger than the training matrix (possible via
		// a caller-supplied idx with repeats) need a wider table.
		g.recip = recipTable(rootRows)
	}
	if g.opt.FeatureFrac > 0 && g.opt.FeatureFrac < 1 && g.rng != nil {
		mtry := int(g.opt.FeatureFrac*float64(g.b.d) + 0.5)
		if mtry < 1 {
			mtry = 1
		}
		g.mtry = mtry
		g.perm = make([]int, g.b.d)
		return
	}
	g.subtract = true
	g.feats = g.b.allFeatures
}

func (g *grower) workers() int { return g.opt.Workers }

func (g *grower) findRoot(lr *leafRec) {
	if !g.subtract {
		g.findSampled(lr)
		return
	}
	if len(lr.idx) >= 2*g.opt.minLeaf() {
		lr.h = g.b.getHist()
		g.b.buildHist(lr.h, g.y, lr.idx, g.feats, g.workers())
	}
	g.scanLeaf(lr)
}

// findChildren computes both children's best splits after parent was
// expanded. In subtract mode this is where the tentpole saving lands:
// only the smaller child's rows are ever accumulated.
func (g *grower) findChildren(parent, left, right *leafRec) {
	if !g.subtract {
		g.findSampled(left)
		g.findSampled(right)
		return
	}
	min2 := 2 * g.opt.minLeaf()
	small, large := left, right
	if len(right.idx) < len(left.idx) {
		small, large = right, left
	}
	b := g.b
	switch {
	case len(small.idx) >= min2:
		small.h = b.getHist()
		b.buildHist(small.h, g.y, small.idx, g.feats, g.workers())
		if len(large.idx) >= min2 {
			parent.h.sub(small.h)
			large.h, parent.h = parent.h, nil
			b.histSubtracted.Inc()
		}
	case len(large.idx) >= min2:
		// The small side can't split, so nothing needs its histogram:
		// build the large child directly instead of via subtraction.
		large.h = b.getHist()
		b.buildHist(large.h, g.y, large.idx, g.feats, g.workers())
	}
	if parent.h != nil {
		b.putHist(parent.h)
		parent.h = nil
	}
	g.scanLeaf(small)
	g.scanLeaf(large)
}

// scanLeaf scores a leaf whose histogram (if splittable) is already in
// lr.h, and releases the histogram as soon as the leaf is known to
// never expand.
func (g *grower) scanLeaf(lr *leafRec) {
	nTot := len(lr.idx)
	if lr.h == nil || nTot < 2*g.opt.minLeaf() {
		lr.gain, lr.feature, lr.bin = 0, -1, -1
		g.releaseLeaf(lr)
		return
	}
	sumTot := 0.0
	for _, i := range lr.idx {
		sumTot += g.y[i]
	}
	gain, pos, bin, nl := g.b.scanHist(lr.h, g.feats, g.recip, sumTot, nTot, g.opt.minLeaf())
	if pos < 0 || math.IsNaN(gain) || gain <= 1e-12 {
		lr.gain, lr.feature, lr.bin = 0, -1, -1
		g.releaseLeaf(lr)
		return
	}
	lr.gain, lr.feature, lr.bin, lr.nl = gain, g.feats[pos], bin, nl
}

// findSampled is the per-node search with feature subsampling: same rng
// consumption order as the exact reference (no draw below 2·minLeaf,
// one permutation per scanned node), then a direct histogram build over
// the sampled features only.
func (g *grower) findSampled(lr *leafRec) {
	nTot := len(lr.idx)
	if nTot < 2*g.opt.minLeaf() {
		lr.gain, lr.feature, lr.bin = 0, -1, -1
		return
	}
	sumTot := 0.0
	for _, i := range lr.idx {
		sumTot += g.y[i]
	}
	permInto(g.rng, g.perm)
	feats := g.perm[:g.mtry]
	var gain float64
	var pos, bin, nl int
	if nTot <= sparseScanMaxRows {
		gain, pos, bin, nl = g.b.scanFeaturesSparse(g.y, lr.idx, feats, g.recip, sumTot, nTot, g.opt.minLeaf())
	} else {
		if g.scratch == nil {
			g.scratch = newHist(g.mtry)
		}
		g.b.buildHist(g.scratch, g.y, lr.idx, feats, g.workers())
		gain, pos, bin, nl = g.b.scanHist(g.scratch, feats, g.recip, sumTot, nTot, g.opt.minLeaf())
		g.scratch.clear()
	}
	if pos < 0 || math.IsNaN(gain) || gain <= 1e-12 {
		lr.gain, lr.feature, lr.bin = 0, -1, -1
		return
	}
	lr.gain, lr.feature, lr.bin, lr.nl = gain, feats[pos], bin, nl
}

func (g *grower) releaseLeaf(lr *leafRec) {
	if lr.h != nil {
		g.b.putHist(lr.h)
		lr.h = nil
	}
}

// release returns the frontier's retained histograms to the pool once
// growth stops (budget exhausted or no positive gain left).
func (g *grower) release(leaves []*leafRec) {
	for _, lr := range leaves {
		g.releaseLeaf(lr)
	}
}
