package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// minBeyond is how many samples must lie strictly beyond a reported tail
// percentile for it to mean anything: a p99 over 500 samples rests on five
// values and moves with each of them.
const minBeyond = 10

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, ascending samples, and how many samples lie strictly above its
// rank. It returns ok=false when sorted is empty.
func nearestRank(sorted []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	// p*n before /100: 95*200/100 is exactly 190, 0.95*200 is not.
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank, true
}

// tailPercentile is nearestRank with the ten-beyond rule enforced: it fails
// when fewer than minBeyond samples lie above the percentile, so a run too
// short for its tail reports an error instead of a number resting on a
// handful of samples.
func tailPercentile(sorted []float64, p float64) (float64, error) {
	v, beyond, ok := nearestRank(sorted, p)
	if !ok {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p, len(sorted), beyond, minBeyond)
	}
	return v, nil
}

// median is the nearest-rank 50th percentile of unsorted xs (0 when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _, _ := nearestRank(s, 50)
	return v
}

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geoMean is the geometric mean of strictly positive xs, computed in log
// space so thirty speedups in the tens cannot overflow. It fails on an
// empty input or a non-positive element.
func geoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of no values")
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("geometric mean of non-positive or infinite value %v", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// spanSelf is one node of a flattened obs span tree: its slash-joined path
// from the root, its total seconds, and its self seconds — the total
// minus the seconds of its direct children.
type spanSelf struct {
	Path  string
	Count int64
	Total float64
	Self  float64
}

// flattenSpans walks an obs span forest depth-first, in the registry's
// order, and returns every node with its self time. obs aggregates spans
// by name, so a node's total covers every interval recorded under it and
// its self time is what the node did outside all of its named children.
func flattenSpans(roots []obs.SpanSnapshot) []spanSelf {
	var out []spanSelf
	var walk func(prefix string, s obs.SpanSnapshot)
	walk = func(prefix string, s obs.SpanSnapshot) {
		path := s.Name
		if prefix != "" {
			path = prefix + "/" + s.Name
		}
		self := s.Sec
		for _, c := range s.Children {
			self -= c.Sec
		}
		out = append(out, spanSelf{Path: path, Count: s.Count, Total: s.Sec, Self: self})
		for _, c := range s.Children {
			walk(path, c)
		}
	}
	for _, r := range roots {
		walk("", r)
	}
	return out
}

// spanTotal returns the total seconds recorded under path (0 if absent).
func spanTotal(flat []spanSelf, path string) float64 {
	for _, s := range flat {
		if s.Path == path {
			return s.Total
		}
	}
	return 0
}

// spanTotalPrefix sums the totals of root spans whose path starts with
// prefix and contains no further slash — "serve.job." covers every job
// kind's root span.
func spanTotalPrefix(flat []spanSelf, prefix string) (sec float64, count int64) {
	for _, s := range flat {
		if strings.HasPrefix(s.Path, prefix) && !strings.Contains(s.Path, "/") {
			sec += s.Total
			count += s.Count
		}
	}
	return sec, count
}

// renderSpans formats the flattened span table for the traced report.
func renderSpans(flat []spanSelf) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, s := range flat {
		fmt.Fprintf(&b, "%-40s %8d %12.4f %12.4f\n", s.Path, s.Count, s.Total, s.Self)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// usage is a getrusage sample of this process.
type usage struct {
	cpu      time.Duration // user + system
	maxRSSMB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Linux reports ru_maxrss in kilobytes.
	return usage{cpu: cpu, maxRSSMB: float64(ru.Maxrss) / 1024}
}

// ratio is num/den, or 0 when den is 0 — a per-layer figure over a layer
// the workload never reached.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// splitmix64 is the SplitMix64 finalizer, used to derive independent
// per-op seeds from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed maps (benchmark seed, stream, index) to a seed in
// [1, 2^30]. Distinct streams keep warm-up, measured and input-generation
// seeds apart; the small range leaves the pipeline's own seed offsets
// (seed+7, seed*100, ...) far from overflow.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := uint64(seed)
	for _, c := range stream {
		h = splitmix64(h ^ uint64(c))
	}
	h = splitmix64(h ^ uint64(i))
	return int64(h>>34) + 1
}
