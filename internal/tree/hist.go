package tree

// This file is the fast histogram split search: flat structure-of-arrays
// bin statistics accumulated from packed bin codes, sibling-histogram
// subtraction, and a group-parallel build — Grow's only split search.
// The plain per-node exact scan it replaced lives on as a test oracle
// (exact_test.go); the contract between the two — where they are
// bit-identical and where only a tolerance holds — is DESIGN.md §13.

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// hist holds one node's split statistics in a flat SoA layout: feature
// f's bins occupy [f*maxBins, (f+1)*maxBins) of both planes, whatever
// subset of features a build covers. Only a feature's first used[f]
// slots — its len(edges)+1 bins — are ever written; the rest stay zero,
// so clear and sub skip them. Counts subtract exactly, so a derived
// sibling's counts — and with them minLeaf feasibility — match a direct
// accumulation bit-for-bit, while derived sums can differ in the last
// bits. Per-bin sum-of-squares is not tracked: the split objective
// compares parent and children SSE, and the Σy² term is common to both
// sides of that difference, so it cancels out of every gain.
type hist struct {
	sum  []float64
	cnt  []int32
	used []int // the builder's per-feature bin counts (shared)
}

func newHist(used []int) *hist {
	n := len(used) * maxBins
	return &hist{sum: make([]float64, n), cnt: make([]int32, n), used: used}
}

// clear zeroes feats' used slots in both planes.
func (h *hist) clear(feats []int) {
	for _, f := range feats {
		clear(h.sum[f*maxBins:][:h.used[f]])
		clear(h.cnt[f*maxBins:][:h.used[f]])
	}
}

// sub derives the sibling histogram in place: h -= o over every
// feature's used slots, the parent-minus-child trick that replaces a
// scan over the larger child's rows.
func (h *hist) sub(o *hist) {
	for f, nb := range h.used {
		hs, os := h.sum[f*maxBins:][:nb], o.sum[f*maxBins:][:nb]
		for k, v := range os {
			hs[k] -= v
		}
		hc, oc := h.cnt[f*maxBins:][:nb], o.cnt[f*maxBins:][:nb]
		for k, v := range oc {
			hc[k] -= v
		}
	}
}

// getHist returns a zeroed histogram from the builder's pool.
func (b *Builder) getHist() *hist {
	h := b.histPool.Get().(*hist)
	h.clear(b.allFeatures)
	return h
}

func (b *Builder) putHist(h *hist) { b.histPool.Put(h) }

// accumulateGroup adds idx's rows into h for the eight features of code
// group g. One word load per row yields all eight codes, and every
// update goes through one array pointer per plane at a constant lane
// offset, so the loop keeps its state in registers. Per (feature, bin)
// slot the additions still happen in idx order, exactly as in the
// reference scan, so directly-built histograms carry bit-identical sums.
func (b *Builder) accumulateGroup(h *hist, y []float64, idx []int, g int) {
	n := b.n
	col := b.codes[g*n:][:n]
	y = y[:n]
	// Codes are < maxBins by construction (at most maxBins-1 edges), so
	// each lane's & 63 is a no-op that, with the fixed-size array views,
	// lets the compiler drop every histogram bounds check.
	s := (*[groupSize * maxBins]float64)(h.sum[g*groupSize*maxBins:])
	c := (*[groupSize * maxBins]int32)(h.cnt[g*groupSize*maxBins:])
	for _, i := range idx {
		w, yi := col[i], y[i]
		k := w & 63
		s[k] += yi
		c[k]++
		k = w>>8&63 + maxBins
		s[k] += yi
		c[k]++
		k = w>>16&63 + 2*maxBins
		s[k] += yi
		c[k]++
		k = w>>24&63 + 3*maxBins
		s[k] += yi
		c[k]++
		k = w>>32&63 + 4*maxBins
		s[k] += yi
		c[k]++
		k = w>>40&63 + 5*maxBins
		s[k] += yi
		c[k]++
		k = w>>48&63 + 6*maxBins
		s[k] += yi
		c[k]++
		k = w>>56&63 + 7*maxBins
		s[k] += yi
		c[k]++
	}
}

// accumulate adds idx's rows into h for an arbitrary feature list — a
// node's sampled features, or the lanes of a partial last code group.
// Features go four per pass over idx, each reading its own group's words;
// per (feature, bin) slot the additions happen in idx order, as in
// accumulateGroup.
func (b *Builder) accumulate(h *hist, y []float64, idx []int, feats []int) {
	p := 0
	for ; p+4 <= len(feats); p += 4 {
		c0, t0 := b.column(feats[p])
		c1, t1 := b.column(feats[p+1])
		c2, t2 := b.column(feats[p+2])
		c3, t3 := b.column(feats[p+3])
		s0, n0 := h.block(feats[p])
		s1, n1 := h.block(feats[p+1])
		s2, n2 := h.block(feats[p+2])
		s3, n3 := h.block(feats[p+3])
		for _, i := range idx {
			yi := y[i]
			k0 := c0[i] >> t0 & 63
			s0[k0] += yi
			n0[k0]++
			k1 := c1[i] >> t1 & 63
			s1[k1] += yi
			n1[k1]++
			k2 := c2[i] >> t2 & 63
			s2[k2] += yi
			n2[k2]++
			k3 := c3[i] >> t3 & 63
			s3[k3] += yi
			n3[k3]++
		}
	}
	for ; p < len(feats); p++ {
		col, t := b.column(feats[p])
		s, n := h.block(feats[p])
		for _, i := range idx {
			k := col[i] >> t & 63
			s[k] += y[i]
			n[k]++
		}
	}
}

// block returns feature f's bins in both planes.
func (h *hist) block(f int) (*[maxBins]float64, *[maxBins]int32) {
	return (*[maxBins]float64)(h.sum[f*maxBins:]), (*[maxBins]int32)(h.cnt[f*maxBins:])
}

// buildHist accumulates idx's statistics for feats into h (whose feats
// slots must be zeroed). When grouped — the subtract path, whose feats
// are every feature in index order — it goes through the packed code
// groups; otherwise feature by feature. On large nodes the groups (or
// contiguous feature chunks) are sharded across up to workers
// goroutines. Every worker writes disjoint blocks of h, so the
// histogram is bit-identical for any worker count.
func (b *Builder) buildHist(h *hist, y []float64, idx []int, feats []int, grouped bool, workers int) {
	b.histBuilt.Inc()
	units := len(feats)
	if grouped {
		units = (b.d + groupSize - 1) / groupSize
	}
	workers = min(workers, units)
	if workers <= 1 || len(idx)*len(feats) < parallelScanMinWork {
		b.accumulateUnits(h, y, idx, feats, grouped, 0, units)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		lo, hi := c*units/workers, (c+1)*units/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.accumulateUnits(h, y, idx, feats, grouped, lo, hi)
		}()
	}
	wg.Wait()
}

// accumulateUnits accumulates buildHist's work units [lo, hi): code
// groups when grouped (a partial last group lane by lane), else features.
func (b *Builder) accumulateUnits(h *hist, y []float64, idx []int, feats []int, grouped bool, lo, hi int) {
	if !grouped {
		b.accumulate(h, y, idx, feats[lo:hi])
		return
	}
	for g := lo; g < hi; g++ {
		if (g+1)*groupSize <= b.d {
			b.accumulateGroup(h, y, idx, g)
		} else {
			b.accumulate(h, y, idx, feats[g*groupSize:])
		}
	}
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

// scanHist finds the best split over h's blocks for feats, returning
// the winning position within feats (-1 if none) and the winning split's
// left-side row count (so the caller's partition can skip its counting
// pass). Features are visited in order and ties keep the first maximum —
// the reference scan's tie-breaking rule. The score uses table-lookup
// reciprocal multiplies (sL²·recip[nL] instead of sL²/nL), which differ
// from the reference's divisions in the last bits: gains agree with the
// exact oracle only within rounding tolerance, part of the fast path's
// documented contract (DESIGN.md §13).
func (b *Builder) scanHist(h *hist, feats []int, recip []float64, sumTot float64, nTot, minLeaf int) (gain float64, pos, bin, nLBest int) {
	baseScore := sumTot * sumTot / float64(nTot)
	pos, bin = -1, -1
	for p, f := range feats {
		nb := len(b.edges[f])
		cnt := h.cnt[f*maxBins:][:nb]
		sum := h.sum[f*maxBins:][:nb]
		if g, k, nL := scanBins(sum, cnt, recip, sumTot, baseScore, gain, nTot, minLeaf); k >= 0 {
			gain, pos, bin, nLBest = g, p, k, nL
		}
	}
	return gain, pos, bin, nLBest
}

// scanBins scans one feature's bins for the first split whose gain
// strictly beats gain — a split at edge k sends bins <= k left — and
// returns its gain, edge (-1 if none) and left-side row count. It first
// accumulates bins until the left side holds minLeaf (>= 1) rows, then
// scores each split until the right side drops below minLeaf.
func scanBins(sum []float64, cnt []int32, recip []float64, sumTot, baseScore, gain float64, nTot, minLeaf int) (float64, int, int) {
	sum = sum[:len(cnt)]
	bin, nLBest := -1, 0
	// An empty bin adds +0 rather than its sum, which in a derived sibling
	// can hold rounding residue. (nL, sL) and therefore the score then
	// repeat the previous bin's, which can never strictly beat an
	// already-seen split, so the first-maximum winner is the one a scan
	// skipping empty bins finds — without a branch.
	nL, sL, k := 0, 0.0, 0
	for ; nL < minLeaf; k++ {
		if k == len(cnt) {
			return gain, bin, nLBest
		}
		c := cnt[k]
		nL += int(c)
		sL += math.Float64frombits(math.Float64bits(sum[k]) & uint64(int64(-c)>>63))
	}
	for { // bins [0, k) are on the left: score the split at edge k-1
		nR := nTot - nL
		if nR < minLeaf {
			break // nL only grows, so every later split fails too
		}
		sR := sumTot - sL
		score := sL*sL*recip[nL] + sR*sR*recip[nR]
		if g := score - baseScore; g > gain {
			gain, bin, nLBest = g, k-1, nL
		}
		if k == len(cnt) {
			break
		}
		c := cnt[k]
		nL += int(c)
		sL += math.Float64frombits(math.Float64bits(sum[k]) & uint64(int64(-c)>>63))
		k++
	}
	return gain, bin, nLBest
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
		col, t := b.column(f)
		var mask uint64
		for _, i := range idx {
			k := col[i] >> t & (maxBins - 1)
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
	scratch  *hist     // sampled mode: a pooled histogram reused per node
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
		g.b.buildHist(lr.h, g.y, lr.idx, g.feats, g.subtract, g.workers())
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
		b.buildHist(small.h, g.y, small.idx, g.feats, g.subtract, g.workers())
		if len(large.idx) >= min2 {
			parent.h.sub(small.h)
			large.h, parent.h = parent.h, nil
			b.histSubtracted.Inc()
		}
	case len(large.idx) >= min2:
		// The small side can't split, so nothing needs its histogram:
		// build the large child directly instead of via subtraction.
		large.h = b.getHist()
		b.buildHist(large.h, g.y, large.idx, g.feats, g.subtract, g.workers())
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
			g.scratch = g.b.getHist()
		}
		g.b.buildHist(g.scratch, g.y, lr.idx, feats, g.subtract, g.workers())
		gain, pos, bin, nl = g.b.scanHist(g.scratch, feats, g.recip, sumTot, nTot, g.opt.minLeaf())
		g.scratch.clear(feats)
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
	if g.scratch != nil {
		g.b.putHist(g.scratch)
		g.scratch = nil
	}
}
