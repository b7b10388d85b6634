package hm

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/tree"
)

// Compiled scoring. Every evaluation of an HM ensemble — Predict,
// PredictBatch, PredictWithUncertainty, the blend fit, the per-round
// boosting update and Resume's replay — runs through one kernel over
// 16-bit feature codes (the QuickScorer idea, Lucchese et al., SIGIR
// 2015). A tree's ≤ maxSplits split tests become independent compares of
// small integer codes, four rows per uint64, and the resulting condition
// bits index a 32-entry mask→leaf table. There is no node-to-node chain,
// and each row still reaches exactly the leaf the pointer walk reaches,
// accumulated with the walk's own expression in the walk's tree order —
// so every result is bit-identical to it.

const (
	// maxSplits is the most split nodes a compiled tree holds: one
	// condition slot each, five slots per tree (the paper's tc).
	maxSplits = 5
	// maxThresholds bounds one feature's distinct split thresholds.
	// Codes run 0..len(thr) and must stay below 0x8000 so the
	// lane-parallel compare keeps its borrow inside its own 16-bit lane.
	maxThresholds = 0x7fff

	laneOnes = 0x0001000100010001
	laneHigh = 0x8000800080008000
	// openSlot is the code of an unused slot: every code is <= it, so
	// the slot always passes.
	openSlot = 0x7fff
)

// codeSpace maps feature values to 16-bit codes. Column k encodes feature
// feats[k] against the ascending distinct thresholds thr[k]: the code of x
// is sort.SearchFloat64s(thr[k], x), so x <= thr[k][j] holds exactly when
// code <= j. NaN encodes past the end, where every split sends it right,
// as the walk's x <= t does; −Inf encodes as 0.
type codeSpace struct {
	feats []int32 // ascending
	thr   [][]float64
}

// edgeSpace is the code space of a tree.Builder's bin edges. Every
// threshold of a tree that builder grows is one of its edges, so the
// boosting update compiles each fresh tree against it.
func edgeSpace(edges [][]float64) codeSpace {
	s := codeSpace{feats: make([]int32, len(edges)), thr: edges}
	for f := range s.feats {
		s.feats[f] = int32(f)
	}
	return s
}

// modelSpace builds the code space of a set of trees from their own
// distinct split thresholds, so it fits any tree set — one Train, several
// Resumes on different data, or a legacy snapshot — at O(nodes·log nodes).
func modelSpace(trees []*tree.Tree) (codeSpace, error) {
	type split struct {
		f int32
		t float64
	}
	var all []split
	for _, t := range trees {
		for i := range t.NumNodes() {
			n := t.Node(i)
			if n.Leaf {
				continue
			}
			// Load rejects such a tree; Train and Resume must not make one.
			if n.Feature >= tree.MaxFeatures {
				return codeSpace{}, fmt.Errorf("hm: split on feature %d, want < %d", n.Feature, tree.MaxFeatures)
			}
			if !math.IsNaN(n.Threshold) {
				all = append(all, split{n.Feature, n.Threshold})
			}
		}
	}
	slices.SortFunc(all, func(a, b split) int {
		return cmp.Or(cmp.Compare(a.f, b.f), cmp.Compare(a.t, b.t))
	})
	var s codeSpace
	for i, sp := range all {
		k := len(s.feats) - 1
		switch {
		case k < 0 || s.feats[k] != sp.f:
			s.feats = append(s.feats, sp.f)
			s.thr = append(s.thr, []float64{sp.t})
		case sp.t != all[i-1].t: // −0 and +0 are one threshold
			s.thr[k] = append(s.thr[k], sp.t)
		}
	}
	for k, thr := range s.thr {
		if len(thr) > maxThresholds {
			return codeSpace{}, fmt.Errorf("hm: feature %d carries %d distinct split thresholds, want <= %d",
				s.feats[k], len(thr), maxThresholds)
		}
	}
	return s, nil
}

// column returns the code column of feature f, which s must hold.
func (s *codeSpace) column(f int32) int {
	k, _ := slices.BinarySearch(s.feats, f)
	return k
}

// code is sort.SearchFloat64s(thr, x) without the closure: the first
// index whose threshold is >= x (len(thr) for NaN).
func code(thr []float64, x float64) uint64 {
	lo, hi := 0, len(thr)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if thr[h] >= x {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return uint64(lo)
}

// block is a set of rows encoded into a code space, padded to a
// multiple of four rows: word k of group g packs column k's codes of rows
// 4g..4g+3, row 4g+l in bits 16l..16l+15. Padding lanes encode as 0 and
// are never written back. A block always has at least one column, which
// unused condition slots read.
type block struct {
	n, ncol int
	words   []uint64 // [group*ncol + column]
}

func (s *codeSpace) encode(X [][]float64) block {
	ncol := max(len(s.feats), 1)
	b := block{n: len(X), ncol: ncol, words: make([]uint64, (len(X)+3)/4*ncol)}
	for r, x := range X {
		g, shift := b.words[r/4*ncol:][:ncol], 16*uint(r%4)
		for k, f := range s.feats {
			g[k] |= code(s.thr[k], x[f]) << shift
		}
	}
	return b
}

// ctree is one compiled tree: slot s tests a row's code in column col[s]
// against code[s] (unused slots always pass), the five outcomes form a
// mask, and leaf[tab[mask]] is the leaf the walk reaches.
type ctree struct {
	code [maxSplits]uint16
	col  [maxSplits]uint16
	tab  [32]uint8
	leaf [maxSplits + 1]float64 // at most maxSplits+1 leaves are reachable
}

// compileTree compiles one tree against s, which must hold every finite
// threshold of the tree. It fails on a tree with more than maxSplits
// splits. A split with a NaN threshold keeps its slot unused: x <= NaN is
// false, so it always sends rows right.
func (s *codeSpace) compileTree(t *tree.Tree) (ctree, error) {
	// node is what a walk needs of one tree node: its children, its
	// condition slot (-1 for a leaf or a NaN split) and, for a leaf, its
	// value and leaf-table entry (-1 until a walk reaches it).
	type node struct {
		left, right int32
		slot, entry int8
		leaf        bool
		value       float64
	}
	var buf [2*maxSplits + 1]node
	nodes := buf[:0]
	if t.NumNodes() > len(buf) {
		nodes = make([]node, 0, t.NumNodes())
	}
	var c ctree
	for k := range c.code {
		c.code[k] = openSlot
	}
	splits := 0
	for i := range t.NumNodes() {
		n := t.Node(i)
		if n.Leaf {
			nodes = append(nodes, node{slot: -1, entry: -1, leaf: true, value: n.Value})
			continue
		}
		if splits == maxSplits {
			return ctree{}, fmt.Errorf("hm: tree has more than %d splits", maxSplits)
		}
		nd := node{left: n.Left, right: n.Right, slot: -1}
		if !math.IsNaN(n.Threshold) {
			k := s.column(n.Feature)
			nd.slot = int8(splits)
			c.col[splits] = uint16(k)
			c.code[splits] = uint16(code(s.thr[k], n.Threshold))
		}
		nodes = append(nodes, nd)
		splits++
	}
	// Five slots settle every split, so one walk per mask finds its leaf.
	// The walks reach at most splits+1 distinct leaves.
	// Children follow their parent (tree.FromFlat), so every walk ends.
	leaves := int8(0)
	for mask := range c.tab {
		nd := &nodes[0]
		for !nd.leaf {
			if nd.slot >= 0 && mask>>nd.slot&1 == 1 {
				nd = &nodes[nd.left]
			} else {
				nd = &nodes[nd.right]
			}
		}
		if nd.entry < 0 {
			nd.entry = leaves
			c.leaf[leaves] = nd.value
			leaves++
		}
		c.tab[mask] = uint8(nd.entry)
	}
	return c, nil
}

// pass tests four rows at once: lane l of the result keeps bit 15 exactly
// when lane l of w, a row's code, is <= code. Both are below 0x8000, so
// no lane borrows from its neighbour.
func pass(code uint16, w uint64) uint64 {
	return ((0x8000+uint64(code))*laneOnes - w) & laneHigh
}

// accumulate adds lr × leaf to out[r] for every row of b and every tree,
// in tree order: per row the walk's own out[r] += scale·Predict(row), so
// the result is bit-identical to it. Shifting slot s's pass bits from bit
// 15 down to bit s leaves four 5-bit masks, one per 16-bit lane. Trees run
// in tiles of 64 (7 KB, cache-resident) against register accumulators, so
// a row group's sums stay out of memory between trees.
func accumulate(trees []ctree, b *block, lr float64, out []float64) {
	const tile = 64
	for lo := 0; lo < len(trees); lo += tile {
		ts := trees[lo:min(lo+tile, len(trees))]
		for r := 0; r < b.n; r += 4 {
			g := b.words[r/4*b.ncol:][:b.ncol]
			var a [4]float64
			copy(a[:], out[r:min(r+4, b.n)])
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			for t := range ts {
				c := &ts[t]
				m := pass(c.code[0], g[c.col[0]])>>15 | pass(c.code[1], g[c.col[1]])>>14 |
					pass(c.code[2], g[c.col[2]])>>13 | pass(c.code[3], g[c.col[3]])>>12 |
					pass(c.code[4], g[c.col[4]])>>11
				a0 += lr * c.leaf[c.tab[m&31]]
				a1 += lr * c.leaf[c.tab[m>>16&31]]
				a2 += lr * c.leaf[c.tab[m>>32&31]]
				a3 += lr * c.leaf[c.tab[m>>48&31]]
			}
			a = [4]float64{a0, a1, a2, a3}
			copy(out[r:min(r+4, b.n)], a[:])
		}
	}
}

// ensemble is a Model's compiled form: one code space over all its trees
// and each first-order sub-model's compiled trees in model order.
type ensemble struct {
	space codeSpace
	subs  []compiledFO
}

type compiledFO struct {
	base, lr float64
	trees    []ctree
}

// compile builds the compiled form of subs.
func compile(subs []*firstOrder) (ensemble, error) {
	var all []*tree.Tree
	for _, fo := range subs {
		all = append(all, fo.trees...)
	}
	space, err := modelSpace(all)
	if err != nil {
		return ensemble{}, err
	}
	e := ensemble{space: space, subs: make([]compiledFO, len(subs))}
	for j, fo := range subs {
		cf := compiledFO{base: fo.base, lr: fo.lr, trees: make([]ctree, len(fo.trees))}
		for i, t := range fo.trees {
			if cf.trees[i], err = space.compileTree(t); err != nil {
				return ensemble{}, err
			}
		}
		e.subs[j] = cf
	}
	return e, nil
}

// predictSub writes sub-model j's fit-space prediction for every row of b
// into out[:b.n]: base + lr·Σ trees, accumulated tree by tree.
func (e *ensemble) predictSub(b *block, j int, out []float64) {
	s := &e.subs[j]
	out = out[:b.n]
	for r := range out {
		out[r] = s.base
	}
	accumulate(s.trees, b, s.lr, out)
}
