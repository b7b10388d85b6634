package ga

import (
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"sync"
)

// GenomeCache memoizes objective values keyed on the exact gene bits of a
// genome (see Key). It belongs to one search run: Minimize keeps one
// holding its last evaluated population, TPE one holding its whole run,
// and Evaluate reads and writes it on the caller's goroutine only, so it
// needs no lock. The key is the genome
// alone, so a cache is only valid for the one objective it was filled
// against.
type GenomeCache map[string]float64

// Key encodes a vector's exact float64 bits as a string, 8 bytes per
// element, little-endian, in one allocation. Two vectors share a key if
// and only if they are bit-identical element for element — the
// equivalence the model.BatchPredictor contract guarantees over, so a
// pure objective or a deterministic model returns the same value for
// rows with equal keys however they are batched. It is the key of every
// GenomeCache entry Evaluate writes, and the daemon's prediction memo
// encodes its keys the same way. +0 and -0 encode differently, as
// do distinct NaN payloads, which is exactly the conservatism a
// bit-exact memo wants.
func Key(x []float64) string {
	var b strings.Builder
	b.Grow(8 * len(x))
	var w [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		b.Write(w[:])
	}
	return b.String()
}

// Evaluate is the one memoized block evaluator every searcher scores
// candidates through. It writes obj's value for X[i] into out[i]: rows
// whose Key cache already holds are replayed, the unique remaining rows
// are scored once each — split into disjoint contiguous chunks fanned
// out over workers goroutines (0 = min(GOMAXPROCS, NumCPU); 1 = one
// call on the caller's goroutine) — and the values are stored and
// merged back serially in row order. A nil cache memoizes within the
// block only. out is identical for any workers value, GOMAXPROCS, or
// cache state. The default caps at NumCPU as well as GOMAXPROCS:
// splitting a CPU-bound block across more goroutines than CPUs (common
// in CPU-quota containers where GOMAXPROCS exceeds the quota) only
// interleaves the chunks' cache footprints. It returns the number of rows the objective scored and
// the number served by the cache or an earlier duplicate in the block;
// the two sum to len(X).
func Evaluate(obj Objective, cache GenomeCache, workers int, X [][]float64, out []float64) (evaluated, hits int) {
	return evaluateInto(obj, cache, cache, workers, X, out)
}

// evaluateInto is Evaluate with the memo's reads and writes split: rows
// memo holds are replayed, and every distinct row of X — replayed or
// scored — is recorded in keep (nil records nothing). With keep == memo
// it is Evaluate; with a fresh keep, keep ends up holding exactly the
// block, which is how Minimize keeps a one-generation memo.
func evaluateInto(obj Objective, memo, keep GenomeCache, workers int, X [][]float64, out []float64) (evaluated, hits int) {
	var uniq [][]float64
	var keys []string
	slot := make([]int, len(X)) // index into uniq, or -1 for a memo hit
	seen := make(map[string]int, len(X))
	for i, x := range X {
		k := Key(x)
		if v, ok := memo[k]; ok {
			out[i] = v
			slot[i] = -1
			if keep != nil {
				keep[k] = v
			}
			continue
		}
		j, ok := seen[k]
		if !ok {
			j = len(uniq)
			seen[k] = j
			uniq = append(uniq, x)
			keys = append(keys, k)
		}
		slot[i] = j
	}
	m := len(uniq)
	vals := make([]float64, m)
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if w := min(workers, m); w == 1 {
		obj(uniq, vals)
	} else if w > 1 {
		var wg sync.WaitGroup
		for c := 0; c < w; c++ {
			lo, hi := c*m/w, (c+1)*m/w
			wg.Add(1)
			go func() {
				defer wg.Done()
				obj(uniq[lo:hi], vals[lo:hi])
			}()
		}
		wg.Wait()
	}
	if keep != nil {
		for j, v := range vals {
			keep[keys[j]] = v
		}
	}
	for i, j := range slot {
		if j >= 0 {
			out[i] = vals[j]
		}
	}
	return m, len(X) - m
}
