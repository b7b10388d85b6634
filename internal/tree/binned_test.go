package tree

import "sort"

// The binned walk is test-only: it evaluates a tree by comparing rows
// encoded into a builder's bins against each split's bin, derived from
// the split's threshold as its index among the builder's edges. It
// proves that every threshold a Builder grows — and that snapshots
// persist through Flatten/FromFlat — is exactly one of that feature's
// edges: a walk on codes must reach the leaf the float walk reaches.

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

// splitBin returns the bin whose upper edge is thresh among edges[f]. It
// panics if thresh is not one of those edges.
func splitBin(edges [][]float64, f int32, thresh float64) uint8 {
	bin := sort.SearchFloat64s(edges[f], thresh)
	if bin == len(edges[f]) || edges[f][bin] != thresh {
		panic("tree: split threshold is not one of its feature's edges")
	}
	return uint8(bin)
}

// AccumulateBinned adds scale × prediction to out[r] for every row of bm,
// walking the tree on bin codes: each split's bin is its threshold's
// index among edges, the edges bm was encoded against. It panics if a
// split threshold is not one of its feature's edges.
func (t *Tree) AccumulateBinned(edges [][]float64, bm *BinMatrix, scale float64, out []float64) {
	bins := make([]uint8, len(t.feature))
	for i, f := range t.feature {
		if f >= 0 {
			bins[i] = splitBin(edges, f, t.thresh[i])
		}
	}
	for r := 0; r < bm.n; r++ {
		i := int32(0)
		for t.feature[i] >= 0 {
			if bm.cols[t.feature[i]][r] <= bins[i] {
				i = t.left[i]
			} else {
				i = t.right[i]
			}
		}
		out[r] += scale * t.thresh[i]
	}
}
