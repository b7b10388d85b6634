// Package tree implements CART-style regression trees ([22] in the paper)
// grown best-first to a node budget — the paper's tree complexity (tc)
// parameter. Trees are the sub-models of both Hierarchical Modeling
// (internal/hm) and the random-forest baseline (internal/rf).
//
// Split finding uses per-feature histogram binning so that growing the
// thousands of small trees a boosted model needs stays cheap: a Builder
// bins the design matrix once, and each Grow call only accumulates bin
// statistics for its sample. Grown trees store their nodes in a flat
// structure-of-arrays layout so batch prediction (PredictBatch,
// AccumulateBatch) streams rows over a tree whose node arrays stay hot
// in cache — the tree-at-a-time evaluation order the GA and boosting hot
// paths depend on.
package tree

import (
	"math/rand"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Options controls tree growth.
type Options struct {
	// MaxSplits is the number of internal (split) nodes — the paper's
	// tree complexity tc. 1 yields a stump.
	MaxSplits int
	// MinLeaf is the minimum samples per leaf (default 5).
	MinLeaf int
	// FeatureFrac is the fraction of features considered per split
	// (default 1; random forests use less).
	FeatureFrac float64
	// Workers bounds the goroutines one split-finding scan may use on
	// large nodes (0 or 1 = serial). The grown tree is identical for any
	// value: feature chunks accumulate into disjoint histogram blocks and
	// the split scan over them stays serial (hist.go).
	Workers int
}

func (o Options) minLeaf() int {
	if o.MinLeaf <= 0 {
		return 5
	}
	return o.MinLeaf
}

func (o Options) maxSplits() int {
	if o.MaxSplits <= 0 {
		return 1
	}
	return o.MaxSplits
}

// leafMarker in the feature array distinguishes leaves from splits.
const leafMarker = int32(-1)

// Tree is a trained regression tree. Nodes live in parallel flat arrays
// (structure-of-arrays): feature[i] < 0 marks node i as a leaf whose value
// is thresh[i]; otherwise thresh[i] is the split threshold on feature[i]
// with children left[i]/right[i].
type Tree struct {
	feature []int32
	thresh  []float64
	left    []int32
	right   []int32
	// bins holds, for split nodes grown by a Builder, the histogram bin
	// whose edge is the node's threshold — the key to evaluating the tree
	// over pre-binned rows (AccumulateBinned). Nil for reloaded trees.
	bins []uint8
	// leaves caches the leaf count so NumLeaves is O(1).
	leaves int
	// gains accumulates the SSE reduction attributed to each feature's
	// committed splits — the raw material of feature importance.
	gains []float64
}

// Gains returns the per-feature SSE reduction of this tree's splits (nil
// for trees grown before any split committed). The slice is shared; do
// not mutate it.
func (t *Tree) Gains() []float64 { return t.gains }

// Predict returns the leaf value reached by x.
func (t *Tree) Predict(x []float64) float64 {
	i := int32(0)
	for {
		f := t.feature[i]
		if f < 0 {
			return t.thresh[i]
		}
		if x[f] <= t.thresh[i] {
			i = t.left[i]
		} else {
			i = t.right[i]
		}
	}
}

// PredictBatch writes the prediction for every row of X into out
// (len(out) must be at least len(X)). One tree's node arrays are streamed
// over all rows before the caller moves to the next tree, so an ensemble
// evaluates each small tree from cache instead of re-walking a cold tree
// per row. Results are bit-identical to calling Predict per row.
func (t *Tree) PredictBatch(X [][]float64, out []float64) {
	feature, thresh, left, right := t.feature, t.thresh, t.left, t.right
	for r, x := range X {
		i := int32(0)
		for {
			f := feature[i]
			if f < 0 {
				out[r] = thresh[i]
				break
			}
			if x[f] <= thresh[i] {
				i = left[i]
			} else {
				i = right[i]
			}
		}
	}
}

// AccumulateBatch adds scale × prediction to out[r] for every row of X —
// the fused update boosting and forest averaging perform per tree
// (out[r] += scale·Predict(X[r])), evaluated tree-at-a-time.
func (t *Tree) AccumulateBatch(X [][]float64, scale float64, out []float64) {
	feature, thresh, left, right := t.feature, t.thresh, t.left, t.right
	for r, x := range X {
		i := int32(0)
		for {
			f := feature[i]
			if f < 0 {
				out[r] += scale * thresh[i]
				break
			}
			if x[f] <= thresh[i] {
				i = left[i]
			} else {
				i = right[i]
			}
		}
	}
}

// AccumulateBinned adds scale × prediction to out[r] for every encoded
// row of bm — the boosting update evaluated over pre-binned data. Every
// split threshold is a bin edge, so comparing uint8 bin codes reaches
// exactly the leaf a float walk would: results are bit-identical to
// AccumulateBatch over the original rows, but each node touches a byte
// column that stays resident in cache instead of row-major float data.
// Valid only for trees carrying bin codes against the edges that encoded
// bm: trees grown in-process by that Builder, or trees reloaded via
// FromFlatWithCodes with bm encoded from the persisted edges
// (BinWithEdges). Trees reloaded via FromFlat carry no bin codes.
func (t *Tree) AccumulateBinned(bm *BinMatrix, scale float64, out []float64) {
	if len(t.bins) != len(t.feature) {
		panic("tree: AccumulateBinned on a tree without bin codes (grown by another builder or reloaded)")
	}
	feature, bins, left, right, thresh := t.feature, t.bins, t.left, t.right, t.thresh
	for r := 0; r < bm.n; r++ {
		i := int32(0)
		for {
			f := feature[i]
			if f < 0 {
				out[r] += scale * thresh[i]
				break
			}
			if bm.cols[f][r] <= bins[i] {
				i = left[i]
			} else {
				i = right[i]
			}
		}
	}
}

// HasBinCodes reports whether the tree carries the per-split bin codes
// AccumulateBinned needs: true for trees grown in-process by a Builder
// and for trees reloaded via FromFlatWithCodes, false after FromFlat.
func (t *Tree) HasBinCodes() bool {
	return len(t.feature) > 0 && len(t.bins) == len(t.feature)
}

// NumNodes returns the total node count (splits + leaves).
func (t *Tree) NumNodes() int { return len(t.feature) }

// NumLeaves returns the leaf count, maintained at build time (O(1)).
func (t *Tree) NumLeaves() int { return t.leaves }

// maxBins is the histogram resolution for split finding.
const maxBins = 64

// parallelScanMinWork is the rows×features product below which a split
// scan stays serial: spawning goroutines costs more than the scan.
const parallelScanMinWork = 1 << 14

// Builder pre-bins a design matrix so many trees can be grown over
// different targets and samples without re-sorting features. A Builder is
// safe for concurrent Grow calls once constructed: growth only reads the
// binned matrix, and the attached counters are atomic.
type Builder struct {
	n, d        int
	binned      [][]uint8   // [feature][row] -> bin index (one flat backing array)
	edges       [][]float64 // [feature][bin] -> upper threshold of bin
	x           [][]float64 // original rows (for thresholds only)
	allFeatures []int       // 0..d-1, reused when no feature sampling

	// histPool recycles full-width node histograms between Grow calls
	// (the sibling-subtraction path retains one per expandable leaf).
	histPool sync.Pool
	// recip[k] = 1/k for k <= n: the fast split scan turns its two
	// per-bin divisions into table-lookup multiplies (hist.go).
	recip []float64
	// rootCnt[f*maxBins+k] counts the rows in feature f's bin k over the
	// whole matrix. Counts don't depend on targets, so a root histogram
	// over the identity sample copies this plane and accumulates sums
	// only (hist.go buildHist).
	rootCnt []int32

	// Metrics are nil unless Instrument attached a registry; obs metrics
	// no-op on nil receivers, so Grow records unconditionally.
	grown          *obs.Counter
	splits         *obs.Counter
	histBuilt      *obs.Counter
	histSubtracted *obs.Counter
	reg            *obs.Registry // grow span timing
}

// Instrument makes every subsequent Grow count trees grown and splits
// committed in reg ("tree.grown", "tree.splits"), histogram work
// ("tree.hist.built" direct accumulations, "tree.hist.subtracted"
// sibling derivations), and time itself under a "tree.grow" span. A nil
// registry detaches. The counters are shared safely with any other
// registry user.
func (b *Builder) Instrument(reg *obs.Registry) {
	b.grown = reg.Counter("tree.grown")
	b.splits = reg.Counter("tree.splits")
	b.histBuilt = reg.Counter("tree.hist.built")
	b.histSubtracted = reg.Counter("tree.hist.subtracted")
	b.reg = reg
}

// NewBuilder bins X (n rows × d features).
func NewBuilder(X [][]float64) *Builder {
	n := len(X)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	b := &Builder{n: n, d: d, x: X,
		binned:      make([][]uint8, d),
		edges:       make([][]float64, d),
		allFeatures: make([]int, d),
	}
	for f := range b.allFeatures {
		b.allFeatures[f] = f
	}
	b.histPool.New = func() any { return newHist(d) }
	b.recip = recipTable(n)
	// One flat backing array for all feature columns keeps the binned
	// matrix contiguous, so a histogram build walking several columns
	// stays within one allocation.
	flat := make([]uint8, n*d)
	vals := make([]float64, n)
	for f := 0; f < d; f++ {
		for i := 0; i < n; i++ {
			vals[i] = X[i][f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		// Quantile bin edges; duplicates collapse for discrete features.
		edges := make([]float64, 0, maxBins-1)
		for k := 1; k < maxBins; k++ {
			v := sorted[k*(n-1)/maxBins]
			if len(edges) == 0 || v > edges[len(edges)-1] {
				edges = append(edges, v)
			}
		}
		b.edges[f] = edges
		col := flat[f*n : (f+1)*n : (f+1)*n]
		for i := 0; i < n; i++ {
			col[i] = uint8(sort.SearchFloat64s(edges, vals[i]))
			// bin k means value <= edges[k] (edge k is the bin's
			// inclusive upper threshold); the last bin is overflow.
		}
		b.binned[f] = col
	}
	b.rootCnt = make([]int32, d*maxBins)
	for f := 0; f < d; f++ {
		cnt := (*[maxBins]int32)(b.rootCnt[f*maxBins:])
		for _, k := range b.binned[f] {
			cnt[k&(maxBins-1)]++
		}
	}
	return b
}

// N returns the number of rows the builder was constructed with.
func (b *Builder) N() int { return b.n }

// BinMatrix is a set of rows pre-encoded into a Builder's histogram bins,
// one uint8 column per feature. Trees grown by that builder can be
// evaluated over a BinMatrix with byte compares (Tree.AccumulateBinned)
// instead of float compares over row-major data — the representation the
// boosting inner loop streams every round.
type BinMatrix struct {
	cols [][]uint8 // [feature][row] -> bin index
	n    int
}

// Len returns the number of encoded rows.
func (bm *BinMatrix) Len() int { return bm.n }

// Bin encodes rows of X (same feature width as the builder's matrix) into
// the builder's bins. A value lands in bin k when it is <= the bin's
// inclusive upper edge, exactly the builder's own binning rule, so
// x[f] <= thresh holds iff the encoded value is <= the threshold's bin.
func (b *Builder) Bin(X [][]float64) *BinMatrix {
	return BinWithEdges(b.edges, X)
}

// BinWithEdges encodes rows of X into the histogram bins described by
// edges (per feature, ascending upper thresholds, as returned by
// Builder.Edges), applying the builder's binning rule without needing the
// builder itself. Trees whose bin codes were produced against the same
// edges evaluate over the result exactly as over a Builder.Bin matrix —
// this is how a model reloaded from disk (edges persisted alongside its
// trees) re-enters the binned training path.
func BinWithEdges(edges [][]float64, X [][]float64) *BinMatrix {
	bm := &BinMatrix{n: len(X), cols: make([][]uint8, len(edges))}
	n := len(X)
	flat := make([]uint8, n*len(edges))
	for f := range edges {
		e := edges[f]
		col := flat[f*n : (f+1)*n : (f+1)*n]
		for i, row := range X {
			col[i] = uint8(sort.SearchFloat64s(e, row[f]))
		}
		bm.cols[f] = col
	}
	return bm
}

// Edges returns a copy of the per-feature histogram bin edges derived
// from the builder's design matrix. Every split threshold of a tree the
// builder grows is one of these edges; persisting them alongside the
// trees' bin codes is what lets a reloaded model keep using the binned
// evaluation path (see BinWithEdges).
func (b *Builder) Edges() [][]float64 {
	out := make([][]float64, len(b.edges))
	for f, e := range b.edges {
		out[f] = append([]float64(nil), e...)
	}
	return out
}

// Binned returns the builder's own pre-binned training matrix as a
// BinMatrix. The storage is shared with the builder, not copied.
func (b *Builder) Binned() *BinMatrix { return &BinMatrix{cols: b.binned, n: b.n} }

// leafRec is one expandable leaf in the best-first frontier, carrying
// its cached best split and, in the sibling-subtraction mode, the
// leaf's retained histogram (hist.go).
type leafRec struct {
	node int32
	idx  []int
	gain float64
	// cached best split; nl is the winning split's left-side row count,
	// which lets Grow's partition skip a counting pass.
	feature int
	bin     int
	nl      int
	h       *hist
}

// Grow fits a regression tree to targets y (len = builder rows) over the
// sample idx (row indices, possibly with repeats for a bootstrap sample).
// rng drives feature subsampling and may be nil when FeatureFrac >= 1.
func (b *Builder) Grow(y []float64, idx []int, opt Options, rng *rand.Rand) *Tree {
	sp := b.reg.StartSpan("tree.grow")
	defer sp.End()
	b.grown.Inc()
	t := &Tree{}
	if len(idx) == 0 {
		t.addLeaf(0)
		return t
	}
	g := &grower{b: b, y: y, opt: opt, rng: rng}
	g.init(len(idx))
	root := t.addLeaf(meanAt(y, idx))
	first := &leafRec{node: root, idx: idx}
	g.findRoot(first)
	leaves := []*leafRec{first}

	for splits := 0; splits < opt.maxSplits(); splits++ {
		// Best-first: expand the leaf with the largest gain.
		best := -1
		for i, lr := range leaves {
			if lr.gain > 0 && (best < 0 || lr.gain > leaves[best].gain) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		lr := leaves[best]
		f, bin := lr.feature, lr.bin
		b.splits.Inc()
		if t.gains == nil {
			t.gains = make([]float64, b.d)
		}
		t.gains[f] += lr.gain
		thresh := b.edges[f][bin]
		// Stable partition into one exact-size allocation: append-grown
		// slices would reallocate ~log2(n) times per split, and this loop
		// runs once per tree node across thousands of boosted trees.
		col, ub := b.binned[f], uint8(bin)
		nL := lr.nl
		mem := make([]int, len(lr.idx))
		li, ri := mem[:nL:nL], mem[nL:]
		lp, rp := 0, 0
		for _, i := range lr.idx {
			if col[i] <= ub {
				li[lp] = i
				lp++
			} else {
				ri[rp] = i
				rp++
			}
		}
		ln := t.addLeaf(meanAt(y, li))
		rn := t.addLeaf(meanAt(y, ri))
		t.setSplit(lr.node, f, thresh, uint8(bin), ln, rn)

		leftRec := &leafRec{node: ln, idx: li}
		rightRec := &leafRec{node: rn, idx: ri}
		if splits+1 < opt.maxSplits() {
			g.findChildren(lr, leftRec, rightRec)
		} else {
			// Final split of the budget: these children can never be
			// expanded, so their split search (and histogram work) is
			// skipped entirely.
			g.releaseLeaf(lr)
		}
		leaves[best] = leftRec
		leaves = append(leaves, rightRec)
	}
	g.release(leaves)
	return t
}

func (t *Tree) addLeaf(v float64) int32 {
	t.feature = append(t.feature, leafMarker)
	t.thresh = append(t.thresh, v)
	t.left = append(t.left, 0)
	t.right = append(t.right, 0)
	t.bins = append(t.bins, 0)
	t.leaves++
	return int32(len(t.feature) - 1)
}

// setSplit converts leaf n into an internal split node whose threshold is
// the upper edge of histogram bin.
func (t *Tree) setSplit(n int32, f int, thresh float64, bin uint8, ln, rn int32) {
	t.feature[n] = int32(f)
	t.thresh[n] = thresh
	t.bins[n] = bin
	t.left[n] = ln
	t.right[n] = rn
	t.leaves--
}

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}
