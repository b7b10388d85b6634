package serve

import (
	"testing"

	"repro/internal/obs"
)

// memoLen counts a memo's entries, probationary and protected.
func memoLen(c *memo) (all, protected int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		all += len(s.m)
		protected += s.protected
		s.mu.Unlock()
	}
	return all, protected
}

// promote admits x with value v and asks for it again, which moves it
// into the protected segment.
func promote(c *memo, x []float64, v float64) {
	key, s := c.key(nil, x)
	c.store(s, key, v)
	c.lookup(s, key)
}

// TestMemoCap checks the protected segment's bound: the entry count stays
// within the cap, eviction makes room for new promotions and is counted,
// updating a resident vector never evicts, and an unbounded memo never
// evicts a promoted vector.
func TestMemoCap(t *testing.T) {
	evictions := obs.NewRegistry().Counter("evictions")
	const cap = 64
	c := newMemo(cap, evictions)
	if c.perShard < 1 {
		t.Fatalf("perShard=%d", c.perShard)
	}
	limit := c.perShard * len(c.shards)
	window := len(c.shards) * c.ring
	for i := 0; i < 10*cap; i++ {
		promote(c, []float64{float64(i)}, float64(i))
		if all, protected := memoLen(c); protected > limit || all > limit+window {
			t.Fatalf("after %d promotions: %d entries, %d protected, limit %d+%d", i+1, all, protected, limit, window)
		}
	}
	if evictions.Value() == 0 {
		t.Fatal("no evictions counted after 10x-cap promotions")
	}
	// Updating a resident vector in a full shard must not evict.
	var resident []float64
	for i := 10*cap - 1; i >= 0 && resident == nil; i-- {
		x := []float64{float64(i)}
		if key, s := c.key(nil, x); func() bool { _, ok := c.lookup(s, key); return ok }() {
			resident = x
		}
	}
	if resident == nil {
		t.Fatal("memo emptied itself")
	}
	key, s := c.key(nil, resident)
	before := evictions.Value()
	c.store(s, key, -1)
	if evictions.Value() != before {
		t.Fatal("updating a resident vector evicted entries")
	}
	if v, ok := c.lookup(s, key); !ok || v != -1 {
		t.Fatalf("resident vector lost its update: (%v,%v)", v, ok)
	}
	// An unbounded memo never evicts.
	u := newMemo(0, nil)
	for i := 0; i < 4*cap; i++ {
		promote(u, []float64{float64(i)}, float64(i))
	}
	if all, _ := memoLen(u); all != 4*cap {
		t.Fatalf("unbounded memo evicted: %d entries, want %d", all, 4*cap)
	}
}

// TestMemoAdmission drives a pinned version's Predict with one-off
// vectors and asserts the admission policy by counting entries: one-offs
// never hold more than the probation window, a vector sent twice within
// the window is answered from the memo from its second request on, a
// promoted vector outlives any number of one-offs, a hit allocates
// nothing, and a version nobody asked holds no window.
func TestMemoAdmission(t *testing.T) {
	reg, err := NewModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saveTinyModel(t, reg, "m", 1, 401)
	r := obs.NewRegistry()
	c := NewModelCache(reg, ServingOptions{CoalesceWindow: -1, MemoCap: 64 * memoWindowDiv}, r)
	h, err := c.Entry("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.memo.shards {
		if h.memo.shards[i].ring != nil {
			t.Fatal("a memo that answered nothing holds a probation ring")
		}
	}
	hits := r.Counter("serve.predict.memo.hits")
	perShard := h.memo.ring
	window := len(h.memo.shards) * perShard
	if window < 64 || window >= 64+len(h.memo.shards) {
		t.Fatalf("window %d over %d shards, want MemoCap/64 = 64 rounded up per shard", window, len(h.memo.shards))
	}
	fresh := 0
	oneOffs := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			fresh++
			h.Predict([]float64{float64(fresh), 1, 20})
			if all, protected := memoLen(h.memo); all > window+protected {
				t.Fatalf("after %d one-offs: %d entries, more than the %d-vector window plus %d promoted", fresh, all, window, protected)
			}
		}
	}
	const n = 20 * 64
	oneOffs(n)
	if _, protected := memoLen(h.memo); protected != 0 || hits.Value() != 0 {
		t.Fatalf("one-offs alone promoted %d vectors and hit %d times", protected, hits.Value())
	}

	// Fewer admissions than one shard's ring holds cannot push x out of
	// probation, wherever x and the one-offs land.
	x := []float64{-1, 2, 30}
	want := loadPredict(t, reg, "m", 1, x)
	if got := h.Predict(x); got != want {
		t.Fatalf("first request predicts %v, want %v", got, want)
	}
	oneOffs(perShard - 1)
	before := hits.Value()
	for k := 0; k < 3; k++ {
		if got := h.Predict(x); got != want {
			t.Fatalf("repeat %d predicts %v, want %v", k+1, got, want)
		}
	}
	if got := hits.Value() - before; got != 3 {
		t.Fatalf("a vector sent again within the window hit %d of 3 times", got)
	}
	if _, protected := memoLen(h.memo); protected != 1 {
		t.Fatalf("%d protected entries, want the one promoted vector", protected)
	}

	oneOffs(n)
	before = hits.Value()
	if got := h.Predict(x); got != want || hits.Value() != before+1 {
		t.Fatalf("after %d one-offs the promoted vector predicts %v (want %v), hit %v", n, got, want, hits.Value() > before)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Predict(x) }); allocs != 0 {
		t.Fatalf("a memo hit allocates %.1f times", allocs)
	}
}
