// Package apps is test-only: it implements the paper's six evaluated
// programs as real computations on the execution engine (internal/engine)
// — not cost models: WordCount, TeraSort, KMeans, PageRank, Naive Bayes,
// and NWeight all run on actual data with actual shuffles. They are the
// executable ground truth behind internal/workloads' stage profiles, and
// their tests verify real algorithmic correctness (clusters recovered,
// ranks matching power iteration, classifications right, associations
// matching brute force). No production package runs them, so they live
// in _test.go files and link into no binary.
package apps

import (
	"fmt"
	"math"

	"repro/internal/engine"
)

// WordCount counts word occurrences (the WC workload).
func WordCount(ctx *engine.Context, words []string) (map[string]int, error) {
	pairs := engine.MapToPairs(engine.Parallelize(ctx, words),
		func(w string) (string, int) { return w, 1 })
	counts, err := engine.ReduceByKey(pairs, func(a, b int) int { return a + b })
	if err != nil {
		return nil, err
	}
	rows, err := counts.Collect()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(rows))
	for _, kv := range rows {
		out[kv.Key] = kv.Value
	}
	return out, nil
}

// TeraSort globally sorts fixed-format records by their 10-byte key (the
// TS workload) and returns the sorted records.
func TeraSort(ctx *engine.Context, records []string) ([]string, error) {
	for i, r := range records {
		if len(r) < 10 {
			return nil, fmt.Errorf("apps: record %d shorter than the 10-byte key", i)
		}
	}
	pairs := engine.MapToPairs(engine.Parallelize(ctx, records),
		func(r string) (string, string) { return r[:10], r[10:] })
	sorted, err := engine.SortByKey(pairs, func(a, b string) bool { return a < b })
	if err != nil {
		return nil, err
	}
	rows, err := sorted.Collect()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(rows))
	for i, kv := range rows {
		out[i] = kv.Key + kv.Value
	}
	return out, nil
}

// KMeans runs Lloyd's algorithm (the KM workload): the point set is cached
// once (stageA), then every iteration assigns points to the nearest centroid
// and aggregates per-cluster sums through a tiny shuffle, with the new
// centroids collected to the driver — exactly the stage structure of the
// paper's Fig. 13.
func KMeans(ctx *engine.Context, points [][]float64, k, iterations int) ([][]float64, error) {
	if k < 1 || len(points) < k {
		return nil, fmt.Errorf("apps: need at least k=%d points, have %d", k, len(points))
	}
	dim := len(points[0])
	ds, err := engine.Parallelize(ctx, points).Cache()
	if err != nil {
		return nil, err
	}
	// Initialize centroids from the first k points.
	centroids := make([][]float64, k)
	for i := range centroids {
		centroids[i] = append([]float64(nil), points[i]...)
	}

	type acc struct {
		Sum   []float64
		Count int
	}
	for it := 0; it < iterations; it++ {
		current := centroids // captured: the per-iteration broadcast
		assigned := engine.MapToPairs(ds, func(p []float64) (int, acc) {
			best, bestD := 0, math.Inf(1)
			for c, cen := range current {
				d := 0.0
				for j := 0; j < dim; j++ {
					t := p[j] - cen[j]
					d += t * t
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			return best, acc{Sum: p, Count: 1}
		})
		sums, err := engine.ReduceByKey(assigned, func(a, b acc) acc {
			s := make([]float64, dim)
			for j := range s {
				s[j] = a.Sum[j] + b.Sum[j]
			}
			return acc{Sum: s, Count: a.Count + b.Count}
		})
		if err != nil {
			return nil, err
		}
		rows, err := sums.Collect() // the stageC driver collect
		if err != nil {
			return nil, err
		}
		next := make([][]float64, k)
		copy(next, centroids)
		for _, kv := range rows {
			cen := make([]float64, dim)
			for j := range cen {
				cen[j] = kv.Value.Sum[j] / float64(kv.Value.Count)
			}
			next[kv.Key] = cen
		}
		centroids = next
	}
	return centroids, nil
}

// Edge is a directed graph edge.
type Edge struct {
	Src, Dst string
}

// PageRank runs the classic damped power iteration (the PR workload): the
// adjacency lists are cached, and every iteration joins ranks against
// links, scatters contributions, and aggregates them — the iterate stage
// with its join-shuffle in the paper's PR profile.
func PageRank(ctx *engine.Context, edges []Edge, iterations int) (map[string]float64, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("apps: empty edge list")
	}
	const damping = 0.85

	linkPairs := engine.MapToPairs(engine.Parallelize(ctx, edges),
		func(e Edge) (string, string) { return e.Src, e.Dst })
	links, err := engine.GroupByKey(linkPairs)
	if err != nil {
		return nil, err
	}
	if links, err = links.Cache(); err != nil {
		return nil, err
	}

	// All vertices (sources and destinations) start at rank 1.
	verts, err := engine.Distinct(engine.FlatMap(engine.Parallelize(ctx, edges),
		func(e Edge) []string { return []string{e.Src, e.Dst} }))
	if err != nil {
		return nil, err
	}
	ranks := engine.MapToPairs(verts, func(v string) (string, float64) { return v, 1.0 })

	for it := 0; it < iterations; it++ {
		joined, err := engine.Join(links, ranks)
		if err != nil {
			return nil, err
		}
		contribs := engine.FlatMap(joined,
			func(kv engine.Pair[string, engine.Joined[[]string, float64]]) []engine.Pair[string, float64] {
				outs := kv.Value.Left
				share := kv.Value.Right / float64(len(outs))
				out := make([]engine.Pair[string, float64], len(outs))
				for i, d := range outs {
					out[i] = engine.Pair[string, float64]{Key: d, Value: share}
				}
				return out
			})
		summed, err := engine.ReduceByKey(contribs, func(a, b float64) float64 { return a + b })
		if err != nil {
			return nil, err
		}
		// Re-anchor every vertex (dangling ones receive no contribution).
		base := engine.MapToPairs(verts, func(v string) (string, float64) { return v, 0 })
		cg, err := engine.CoGroup(base, summed)
		if err != nil {
			return nil, err
		}
		ranks = engine.Map(cg, func(kv engine.Pair[string, engine.CoGrouped[float64, float64]]) engine.Pair[string, float64] {
			sum := 0.0
			for _, v := range kv.Value.Right {
				sum += v
			}
			return engine.Pair[string, float64]{Key: kv.Key, Value: (1 - damping) + damping*sum}
		})
	}

	rows, err := ranks.Collect()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(rows))
	for _, kv := range rows {
		out[kv.Key] = kv.Value
	}
	return out, nil
}
