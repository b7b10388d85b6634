package tree

import "sort"

// The binned walk is test-only: it evaluates a tree by comparing the
// per-split bin codes against rows encoded into the builder's bins. It
// proves that the codes a tree carries — and that snapshots persist
// through Flatten/FromFlatWithCodes — index the builder's edges exactly:
// a walk on codes must reach the leaf the float walk reaches.

// BinMatrix is a set of rows encoded into a Builder's histogram bins, one
// uint8 column per feature.
type BinMatrix struct {
	cols [][]uint8 // [feature][row] -> bin index
	n    int
}

// Bin encodes rows of X into the builder's bins.
func (b *Builder) Bin(X [][]float64) *BinMatrix {
	return BinWithEdges(b.edges, X)
}

// BinWithEdges encodes rows of X into the bins described by edges (per
// feature, ascending upper thresholds, as Builder.Edges returns them):
// a value lands in bin k when it is <= edge k, the builder's own rule.
func BinWithEdges(edges [][]float64, X [][]float64) *BinMatrix {
	bm := &BinMatrix{n: len(X), cols: make([][]uint8, len(edges))}
	for f, e := range edges {
		col := make([]uint8, len(X))
		for i, row := range X {
			col[i] = uint8(sort.SearchFloat64s(e, row[f]))
		}
		bm.cols[f] = col
	}
	return bm
}

// Binned returns the builder's own binned training matrix, unpacked from
// its code words.
func (b *Builder) Binned() *BinMatrix {
	bm := &BinMatrix{n: b.n, cols: make([][]uint8, b.d)}
	for f := range bm.cols {
		bm.cols[f] = make([]uint8, b.n)
		for i := range bm.cols[f] {
			bm.cols[f][i] = b.code(f, i)
		}
	}
	return bm
}

// code returns the builder's bin code of feature f in row i.
func (b *Builder) code(f, i int) uint8 {
	col, t := b.column(f)
	return uint8(col[i] >> t)
}

// AccumulateBinned adds scale × prediction to out[r] for every row of bm,
// walking the tree on bin codes. It panics on a tree without codes.
func (t *Tree) AccumulateBinned(bm *BinMatrix, scale float64, out []float64) {
	if !t.HasBinCodes() {
		panic("tree: AccumulateBinned on a tree without bin codes")
	}
	for r := 0; r < bm.n; r++ {
		i := int32(0)
		for t.feature[i] >= 0 {
			if bm.cols[t.feature[i]][r] <= t.bins[i] {
				i = t.left[i]
			} else {
				i = t.right[i]
			}
		}
		out[r] += scale * t.thresh[i]
	}
}
