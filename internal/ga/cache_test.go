package ga

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/conf"
)

// TestSharedCacheSameResult pins the sharing contract: a Minimize run
// against a pre-warmed shared cache must return exactly the result of a
// run with a private cache — only the Evaluations/CacheHits split moves,
// and it moves exactly (every lookup is either a real objective call or a
// counted hit).
func TestSharedCacheSameResult(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	opt := quickOpt()

	ref := Minimize(space, Scalar(obj), nil, opt)

	shared := NewGenomeCache()
	optS := opt
	optS.Cache = shared
	first := Minimize(space, Scalar(obj), nil, optS)
	if !reflect.DeepEqual(first.Best, ref.Best) || first.BestFitness != ref.BestFitness ||
		!reflect.DeepEqual(first.History, ref.History) {
		t.Fatal("shared-cache run diverged from the private-cache run")
	}
	if first.Evaluations != ref.Evaluations || first.CacheHits != ref.CacheHits {
		t.Fatalf("cold shared cache changed the eval split: evals %d/%d hits %d/%d",
			first.Evaluations, ref.Evaluations, first.CacheHits, ref.CacheHits)
	}

	// A second identical run replays everything: zero objective calls,
	// every lookup a hit, identical result.
	second := Minimize(space, Scalar(obj), nil, optS)
	if !reflect.DeepEqual(second.Best, ref.Best) || second.BestFitness != ref.BestFitness {
		t.Fatal("warm shared-cache run diverged")
	}
	if second.Evaluations != 0 {
		t.Fatalf("warm cache still evaluated %d genomes", second.Evaluations)
	}
	if second.Evaluations+second.CacheHits != ref.Evaluations+ref.CacheHits {
		t.Fatalf("lookup count drifted: %d+%d != %d+%d",
			second.Evaluations, second.CacheHits, ref.Evaluations, ref.CacheHits)
	}
	if shared.Len() != ref.Evaluations {
		t.Fatalf("cache holds %d genomes, want the %d evaluated", shared.Len(), ref.Evaluations)
	}
}

// TestSharedCacheConcurrentSearches runs several searches of the same
// objective against one shared cache concurrently — the daemon's search
// worker pool — and requires every one to reproduce the private-cache
// reference bit for bit. Run under -race, this also proves the sharded
// cache is safe for concurrent use.
func TestSharedCacheConcurrentSearches(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	opt := quickOpt()
	opt.PopSize, opt.Generations = 24, 12

	refs := make([]Result, 3)
	for s := range refs {
		o := opt
		o.Seed = int64(100 + s)
		refs[s] = Minimize(space, Scalar(obj), nil, o)
	}

	shared := NewGenomeCache()
	const callers = 6
	got := make([]Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := opt
			o.Seed = int64(100 + c%len(refs))
			o.Cache = shared
			got[c] = Minimize(space, Scalar(obj), nil, o)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		ref := refs[c%len(refs)]
		if !reflect.DeepEqual(got[c].Best, ref.Best) || got[c].BestFitness != ref.BestFitness {
			t.Fatalf("caller %d: concurrent shared-cache search diverged from its reference", c)
		}
	}
}

// TestGenomeCacheShards exercises the cache primitive directly: values
// round-trip, misses miss, and Len aggregates across shards.
func TestGenomeCacheShards(t *testing.T) {
	c := NewGenomeCache()
	if len(c.shards)&(len(c.shards)-1) != 0 {
		t.Fatalf("shard count %d is not a power of two", len(c.shards))
	}
	keys := []string{"", "a", "ab", "genome-1", "genome-2", "\x00\x01\x02"}
	for i, k := range keys {
		c.Store(k, float64(i))
	}
	for i, k := range keys {
		v, ok := c.Lookup(k)
		if !ok || v != float64(i) {
			t.Fatalf("key %q: got (%v,%v), want (%v,true)", k, v, ok, float64(i))
		}
	}
	if _, ok := c.Lookup("missing"); ok {
		t.Fatal("phantom hit for a never-stored key")
	}
	if c.Len() != len(keys) {
		t.Fatalf("Len=%d, want %d", c.Len(), len(keys))
	}
}

// TestShardedCacheMatchesSingleShard pins that a key's shard only spreads
// lock traffic: an 8-shard and a 1-shard cache fed the same blocks through
// Evaluate return identical values and the same evaluated/hit split, block
// after block, while the keys do spread over every shard — also when every
// gene is integral, as a space of Int and Choice parameters yields, whose
// float64 bits are zero below the high mantissa bytes.
func TestShardedCacheMatchesSingleShard(t *testing.T) {
	withShards := func(n int) *GenomeCache {
		prev := runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(prev)
		return NewGenomeCache()
	}
	single, sharded := withShards(1), withShards(8)
	if len(single.shards) != 1 || len(sharded.shards) != 8 {
		t.Fatalf("shards: %d and %d, want 1 and 8", len(single.shards), len(sharded.shards))
	}
	space := conf.StandardSpace()
	obj := Scalar(sphere(space))
	rng := rand.New(rand.NewSource(4))
	var seen, integral [][]float64
	for b := 0; b < 40; b++ {
		X := make([][]float64, 64)
		for i := range X {
			if len(seen) > 0 && rng.Intn(3) == 0 {
				X[i] = seen[rng.Intn(len(seen))] // a genome an earlier block scored
				continue
			}
			X[i] = make([]float64, space.Len())
			space.SampleInto(X[i], rng)
			if b%2 == 1 {
				for j := range X[i] {
					X[i][j] = math.Round(X[i][j])
				}
				integral = append(integral, X[i])
			}
			seen = append(seen, X[i])
		}
		want := make([]float64, len(X))
		got := make([]float64, len(X))
		we, wh := Evaluate(obj, single, 1, X, want)
		ge, gh := Evaluate(obj, sharded, 2, X, got)
		if !reflect.DeepEqual(got, want) || ge != we || gh != wh {
			t.Fatalf("block %d: sharded (%d evaluated, %d hits) differs from single-shard (%d, %d)", b, ge, gh, we, wh)
		}
	}
	// The integral genomes alone must reach every shard.
	perShard := make(map[*cacheShard]int)
	for _, x := range integral {
		perShard[sharded.shard(Key(x))]++
	}
	for i := range sharded.shards {
		if n := perShard[&sharded.shards[i]]; n < len(integral)/16 {
			t.Fatalf("shard %d of 8 holds %d of %d integral genomes", i, n, len(integral))
		}
	}
}
