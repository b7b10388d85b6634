package engine

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func testCtx() *Context {
	return NewContext(Config{Parallelism: 4, Workers: 4})
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	ctx := testCtx()
	in := []int{1, 2, 3, 4, 5, 6, 7}
	out, err := Parallelize(ctx, in).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed data: %v -> %v", in, out)
	}
}

func TestMapFilterFlatMapPipeline(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, []int{1, 2, 3, 4, 5})
	doubled := Map(d, func(x int) int { return 2 * x })
	evens := Filter(doubled, func(x int) bool { return x%4 == 0 })
	expanded := FlatMap(evens, func(x int) []int { return []int{x, x + 1} })
	out, err := expanded.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 5, 8, 9} // 2*2=4, 2*4=8, each expanded
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("pipeline produced %v, want %v", out, want)
	}
	// A narrow-only pipeline must not shuffle.
	if m := ctx.Metrics(); m.ShuffleBytesWritten != 0 {
		t.Errorf("narrow pipeline wrote %d shuffle bytes", m.ShuffleBytesWritten)
	}
}

func TestCountAndReduce(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, []int{5, 1, 9, 3})
	n, err := d.Count()
	if err != nil || n != 4 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	sum, ok, err := Reduce(d, func(a, b int) int { return a + b })
	if err != nil || !ok || sum != 18 {
		t.Fatalf("Reduce = %d, %v, %v", sum, ok, err)
	}
	empty := Parallelize(ctx, []int{})
	if _, ok, _ := Reduce(empty, func(a, b int) int { return a + b }); ok {
		t.Error("empty Reduce should report !ok")
	}
}

func TestReduceByKeyMatchesReference(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(1))
	n := 5000
	words := make([]string, n)
	ref := map[string]int{}
	for i := range words {
		words[i] = fmt.Sprintf("w%d", rng.Intn(100))
		ref[words[i]]++
	}
	pairs := MapToPairs(Parallelize(ctx, words), func(w string) (string, int) { return w, 1 })
	counts, err := ReduceByKey(pairs, func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	rows, err := counts.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ref) {
		t.Fatalf("got %d keys, want %d", len(rows), len(ref))
	}
	for _, kv := range rows {
		if ref[kv.Key] != kv.Value {
			t.Fatalf("%s: %d, want %d", kv.Key, kv.Value, ref[kv.Key])
		}
	}
	if m := ctx.Metrics(); m.ShuffleBytesWritten == 0 || m.ShuffleBytesRead == 0 {
		t.Error("ReduceByKey should move bytes through the shuffle")
	}
}

func TestSortByKeyGloballySorted(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 5, Workers: 4})
	rng := rand.New(rand.NewSource(2))
	n := 3000
	data := make([]Pair[string, int], n)
	for i := range data {
		data[i] = Pair[string, int]{fmt.Sprintf("%08d", rng.Intn(1_000_000)), i}
	}
	d := Parallelize(ctx, data)
	sorted, err := SortByKey(d, func(a, b string) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	out, err := sorted.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("sort changed cardinality: %d != %d", len(out), n)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Key < out[i-1].Key {
			t.Fatalf("not sorted at %d: %q < %q", i, out[i].Key, out[i-1].Key)
		}
	}
}

func TestShuffleCompressionShrinksBytes(t *testing.T) {
	run := func(compress bool) int64 {
		ctx := NewContext(Config{Parallelism: 4, Workers: 4, CompressShuffle: compress})
		text := strings.Repeat("the quick brown fox ", 2000)
		words := strings.Fields(text)
		pairs := MapToPairs(Parallelize(ctx, words), func(w string) (string, int) { return w, 1 })
		// Disable the map-side combine effect by shuffling raw pairs via
		// SortByKey, which keeps all records.
		sorted, err := SortByKey(pairs, func(a, b string) bool { return a < b })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sorted.Collect(); err != nil {
			t.Fatal(err)
		}
		return ctx.Metrics().ShuffleBytesWritten
	}
	raw := run(false)
	comp := run(true)
	if comp >= raw {
		t.Fatalf("compressed shuffle (%d B) not smaller than raw (%d B)", comp, raw)
	}
}

func TestSpillingUnderMemoryPressure(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 4, Workers: 2, ShuffleMemoryMB: 1, TempDir: t.TempDir()})
	rng := rand.New(rand.NewSource(3))
	n := 200_000 // ~ several MB of pairs
	data := make([]Pair[int, int64], n)
	for i := range data {
		data[i] = Pair[int, int64]{rng.Intn(n), rng.Int63()}
	}
	sorted, err := SortByKey(Parallelize(ctx, data), func(a, b int) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	out, err := sorted.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("spilled sort lost records: %d != %d", len(out), n)
	}
	m := ctx.Metrics()
	if m.SpillBytes == 0 || m.SpillFiles == 0 {
		t.Fatalf("1MB budget over ~MBs of shuffle should spill: %+v", m)
	}
}

func TestCloseRemovesSpillFiles(t *testing.T) {
	dir := t.TempDir()
	ctx := NewContext(Config{Parallelism: 4, Workers: 2, ShuffleMemoryMB: 1, TempDir: dir})
	rng := rand.New(rand.NewSource(9))
	data := make([]Pair[int, int64], 200_000) // spills under the 1MB budget, as above
	for i := range data {
		data[i] = Pair[int, int64]{rng.Intn(len(data)), rng.Int63()}
	}
	sorted, err := SortByKey(Parallelize(ctx, data), func(a, b int) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sorted.Collect(); err != nil {
		t.Fatal(err)
	}
	if ctx.Metrics().SpillFiles == 0 {
		t.Fatalf("1MB budget over ~MBs of shuffle should spill: %+v", ctx.Metrics())
	}
	before, _ := os.ReadDir(dir)
	if len(before) == 0 {
		t.Fatal("expected spill files on disk before Close")
	}
	ctx.Close()
	after, _ := os.ReadDir(dir)
	if len(after) != 0 {
		t.Fatalf("%d spill files remain after Close", len(after))
	}
	ctx.Close() // idempotent
}

func TestCacheAvoidsRecompute(t *testing.T) {
	ctx := testCtx()
	computes := 0
	var mu sync.Mutex
	d := Generate(ctx, 4, func(p int) []int {
		mu.Lock()
		computes++
		mu.Unlock()
		return []int{p}
	})
	if _, err := d.Cache(); err != nil {
		t.Fatal(err)
	}
	after := computes
	if after != 4 {
		t.Fatalf("Cache computed %d partitions, want 4", after)
	}
	d.Collect()
	d.Collect()
	if computes != after {
		t.Fatalf("cached dataset recomputed: %d -> %d", after, computes)
	}
}

func TestCountByKey(t *testing.T) {
	ctx := testCtx()
	words := []string{"a", "b", "a", "c", "a", "b"}
	pairs := MapToPairs(Parallelize(ctx, words), func(w string) (string, struct{}) { return w, struct{}{} })
	counts, err := CountByKey(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if counts["a"] != 3 || counts["b"] != 2 || counts["c"] != 1 {
		t.Fatalf("CountByKey = %v", counts)
	}
}

func TestEncodeDecodeBlockRoundTrip(t *testing.T) {
	rows := []Pair[string, int]{{"x", 1}, {"y", 2}}
	for _, compress := range []bool{false, true} {
		blk, err := encodeBlock(rows, compress)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeBlock[string, int](blk, compress)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, back) {
			t.Fatalf("compress=%v: %v != %v", compress, rows, back)
		}
	}
}

// Property: word counting on the engine matches a plain map for arbitrary
// word streams.
func TestWordCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		words := make([]string, n)
		ref := map[string]int{}
		for i := range words {
			words[i] = string(rune('a' + rng.Intn(6)))
			ref[words[i]]++
		}
		ctx := NewContext(Config{Parallelism: 1 + rng.Intn(6), Workers: 3})
		pairs := MapToPairs(Parallelize(ctx, words), func(w string) (string, int) { return w, 1 })
		counts, err := ReduceByKey(pairs, func(a, b int) int { return a + b })
		if err != nil {
			return false
		}
		rows, err := counts.Collect()
		if err != nil || len(rows) != len(ref) {
			return false
		}
		for _, kv := range rows {
			if ref[kv.Key] != kv.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: sorting preserves the multiset of keys.
func TestSortPreservesKeysProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		keys := make([]int, n)
		data := make([]Pair[int, int], n)
		for i := range data {
			keys[i] = rng.Intn(1000)
			data[i] = Pair[int, int]{keys[i], i}
		}
		ctx := NewContext(Config{Parallelism: 1 + rng.Intn(5), Workers: 3})
		sorted, err := SortByKey(Parallelize(ctx, data), func(a, b int) bool { return a < b })
		if err != nil {
			return false
		}
		out, err := sorted.Collect()
		if err != nil || len(out) != n {
			return false
		}
		got := make([]int, n)
		for i, kv := range out {
			got[i] = kv.Key
		}
		if !sort.IntsAreSorted(got) {
			return false
		}
		sort.Ints(keys)
		return reflect.DeepEqual(keys, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
