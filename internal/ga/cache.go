package ga

import (
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"sync"
)

// GenomeCache memoizes objective values keyed on the exact gene bits of a
// genome. It is sharded by genome hash — one mutex-guarded map per shard,
// with the shard count rounded up to a power of two at or above
// GOMAXPROCS — so concurrent searches sharing one cache (the daemon runs
// several search jobs at once) spread their lookups across shards instead
// of contending on a single map.
//
// A cache may only be shared between searches whose objectives are
// identical: the key is the genome alone, so two searches minimizing
// different functions (a different model, or the same model at a
// different target datasize) would poison each other's values. Minimize
// creates a private cache per run unless Options.Cache injects a shared
// one.
type GenomeCache struct {
	shards []cacheShard
	shift  uint // 64 − log2(len(shards)): a hash's top bits pick its shard
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]float64
}

// NewGenomeCache returns an empty unbounded cache with
// GOMAXPROCS-proportional sharding.
func NewGenomeCache() *GenomeCache {
	n, shift := 1, uint(64)
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
		shift--
	}
	c := &GenomeCache{shards: make([]cacheShard, n), shift: shift}
	for i := range c.shards {
		c.shards[i].m = make(map[string]float64)
	}
	return c
}

// FNV-1a constants, matching hash/fnv's 64a variant.
const (
	cacheFNVOffset uint64 = 14695981039346656037
	cacheFNVPrime  uint64 = 1099511628211
)

// shard picks the shard for a genome key. It runs FNV-1a over the key's
// 8-byte words rather than its bytes — a key is one word per gene — and
// takes the hash's top bits: a multiply carries each bit only upward, and
// an integral gene's float64 bits are zero in every low mantissa byte, so
// only the top bits depend on every gene. The shard decides only which
// lock a key takes, never its value.
func (c *GenomeCache) shard(key string) *cacheShard {
	h := cacheFNVOffset
	for ; len(key) >= 8; key = key[8:] {
		w := uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		h = (h ^ w) * cacheFNVPrime
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * cacheFNVPrime
	}
	return &c.shards[h>>c.shift]
}

// Lookup returns the memoized value for the genome key, if present.
func (c *GenomeCache) Lookup(key string) (float64, bool) {
	s := c.shard(key)
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	return v, ok
}

// Store memoizes the value for the genome key.
func (c *GenomeCache) Store(key string, v float64) {
	s := c.shard(key)
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

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
func Evaluate(obj Objective, cache *GenomeCache, workers int, X [][]float64, out []float64) (evaluated, hits int) {
	var uniq [][]float64
	var keys []string
	slot := make([]int, len(X)) // index into uniq, or -1 for a cache hit
	seen := make(map[string]int, len(X))
	for i, x := range X {
		k := Key(x)
		if cache != nil {
			if v, ok := cache.Lookup(k); ok {
				out[i] = v
				slot[i] = -1
				continue
			}
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
	if cache != nil {
		for j, v := range vals {
			cache.Store(keys[j], v)
		}
	}
	for i, j := range slot {
		if j >= 0 {
			out[i] = vals[j]
		}
	}
	return m, len(X) - m
}

// Len returns the number of memoized genomes across all shards.
func (c *GenomeCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
