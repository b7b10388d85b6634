package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hm"
	"repro/internal/model"
	"repro/internal/obs"
)

// hotDim is the feature dimensionality the cache unit tests train at
// (arbitrary: the cache is agnostic to it).
const hotDim = 3

// tinyModel trains a small hm model whose predictions scale with scale,
// so different registered versions are distinguishable.
func tinyModel(t *testing.T, scale float64, seed int64) *hm.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset(nil)
	for i := 0; i < 60; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 5, rng.Float64() * 100}
		ds.Add(x, scale*(1+x[0]+0.5*x[1])*(1+0.01*rng.NormFloat64()))
	}
	m, err := hm.Train(ds, hm.Options{Trees: 8, LearningRate: 0.3, TreeComplexity: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// saveTinyModel registers a tinyModel as the next version of name, the
// way a program registers a model outside any job.
func saveTinyModel(t *testing.T, reg *ModelRegistry, name string, scale float64, seed int64) int {
	t.Helper()
	return saveTinyMeta(t, reg, name, scale, seed, ModelMeta{Backend: "hm"})
}

// jobMeta is the metadata of a registration made by a dacd job.
var jobMeta = ModelMeta{Backend: "hm", Job: 1}

// saveJobModel registers a tinyModel as the next version of name the way
// a dacd job does, with the job's id in its metadata.
func saveJobModel(t *testing.T, reg *ModelRegistry, name string, scale float64, seed int64) int {
	t.Helper()
	return saveTinyMeta(t, reg, name, scale, seed, jobMeta)
}

func saveTinyMeta(t *testing.T, reg *ModelRegistry, name string, scale float64, seed int64, meta ModelMeta) int {
	t.Helper()
	v, err := reg.Save(name, tinyModel(t, scale, seed), meta)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// loadPredict is the cold reference: a fresh registry decode plus one
// Predict — what every hot-path answer must match bit for bit.
func loadPredict(t *testing.T, reg *ModelRegistry, name string, version int, x []float64) float64 {
	t.Helper()
	m, _, err := reg.Load(name, version)
	if err != nil {
		t.Fatal(err)
	}
	return m.Predict(x)
}

// TestHotCacheEvictionLRU pins the LRU bound: the latest version is
// always pinned, old versions beyond KeepOldVersions evict least
// recently used first, and an evicted version re-faults correctly —
// with the serve.modelcache.{hits,misses,evictions} counters asserted
// at every step.
func TestHotCacheEvictionLRU(t *testing.T) {
	reg, err := NewModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 5; v++ {
		saveTinyModel(t, reg, "m", float64(v), int64(100+v))
	}
	r := obs.NewRegistry()
	c := NewModelCache(reg, ServingOptions{KeepOldVersions: 2, CoalesceWindow: -1}, r)
	hits := r.Counter("serve.modelcache.hits")
	misses := r.Counter("serve.modelcache.misses")
	evictions := r.Counter("serve.modelcache.evictions")
	x := []float64{3, 2, 50}

	get := func(version int) *hotModel {
		t.Helper()
		h, err := c.Entry("m", version)
		if err != nil {
			t.Fatalf("Entry(m, %d): %v", version, err)
		}
		return h
	}
	check := func(step string, wantHits, wantMisses, wantEvictions int64) {
		t.Helper()
		if hits.Value() != wantHits || misses.Value() != wantMisses || evictions.Value() != wantEvictions {
			t.Fatalf("%s: hits/misses/evictions = %d/%d/%d, want %d/%d/%d", step,
				hits.Value(), misses.Value(), evictions.Value(), wantHits, wantMisses, wantEvictions)
		}
	}

	if h := get(0); h.Meta().Version != 5 {
		t.Fatalf("version 0 resolved v%d, want v5", h.Meta().Version)
	}
	check("fault latest", 0, 1, 0)
	get(5) // the latest is pinned under its own version too
	check("latest by version", 1, 1, 0)
	get(1)
	get(2)
	check("two old versions fit", 1, 3, 0)
	get(3) // third old version: v1 is the LRU
	check("evict v1", 1, 4, 1)
	get(2) // refresh v2's recency
	check("v2 still pinned", 2, 4, 1)
	get(4) // v3 is now LRU
	check("evict v3", 2, 5, 2)
	if h := get(3); h.Meta().Version != 3 { // re-fault evicted v3; v2 is LRU
		t.Fatalf("re-fault resolved v%d, want v3", h.Meta().Version)
	}
	check("re-fault v3, evict v2", 2, 6, 3)
	get(0)
	check("latest never evicted", 3, 6, 3)
	if got := c.Pinned(); got != 3 { // v5 (latest) + v4, v3
		t.Fatalf("Pinned() = %d, want 3", got)
	}

	// Every pinned or re-faulted version predicts exactly what a fresh
	// disk decode predicts.
	for _, v := range []int{1, 3, 5} {
		if got, want := get(v).Predict(x), loadPredict(t, reg, "m", v, x); got != want {
			t.Fatalf("v%d: hot path predicts %v, fresh load predicts %v", v, got, want)
		}
	}
}

// TestHotCacheRefreshSwap pins the registration hook: the first
// version-0 read of a name only jobs have registered faults its registry
// latest in exactly once, and from then on every Save fires
// SetOnSave→Refresh, which swaps the new version in for version-0 reads
// with no further miss. The previous
// version stays reachable explicitly, and the two versions really are
// different models.
func TestHotCacheRefreshSwap(t *testing.T) {
	reg, err := NewModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	c := NewModelCache(reg, ServingOptions{CoalesceWindow: -1}, r)
	reg.SetOnSave(c.Refresh)
	misses := r.Counter("serve.modelcache.misses")
	x := []float64{3, 2, 50}

	saveJobModel(t, reg, "m", 1, 201)
	h1, err := c.Entry("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Meta().Version != 1 {
		t.Fatalf("resolved v%d, want v1", h1.Meta().Version)
	}
	if got := misses.Value(); got != 1 {
		t.Fatalf("first read of a never-served name: %d misses, want exactly 1 fault", got)
	}

	saveJobModel(t, reg, "m", 3, 202)
	h2, err := c.Entry("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Meta().Version != 2 {
		t.Fatalf("after retrain, version 0 resolved v%d, want v2", h2.Meta().Version)
	}
	if got := misses.Value(); got != 1 {
		t.Fatalf("swapped-in version faulted: %d misses, want 1", got)
	}
	old, err := c.Entry("m", 1)
	if err != nil {
		t.Fatalf("previous version no longer reachable: %v", err)
	}
	if got := misses.Value(); got != 1 {
		t.Fatalf("previous version was not kept pinned: %d misses, want 1", got)
	}
	p1, p2 := old.Predict(x), h2.Predict(x)
	if p1 == p2 {
		t.Fatalf("v1 and v2 predict identically (%v): swap did not change the model", p1)
	}
	if want := loadPredict(t, reg, "m", 2, x); p2 != want {
		t.Fatalf("swapped model predicts %v, fresh load %v", p2, want)
	}
}

// TestHotCacheSaveSkipsUnservedNames pins the write side: a job's
// registration of a name no client has predicted against decodes and
// pins nothing, and the first predict then faults in the newest version
// and answers bit-identically to a registry decode. A registration made
// outside any job pins at once, so its first read does not fault.
func TestHotCacheSaveSkipsUnservedNames(t *testing.T) {
	reg, err := NewModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	c := NewModelCache(reg, ServingOptions{CoalesceWindow: -1}, r)
	reg.SetOnSave(c.Refresh)
	const n = 5
	for v := 1; v <= n; v++ {
		saveJobModel(t, reg, "m", float64(v), int64(500+v))
	}
	if got := c.Pinned(); got != 0 {
		t.Fatalf("Pinned() = %d after %d saves of a never-served name, want 0", got, n)
	}
	h, err := c.Entry("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Meta().Version != n {
		t.Fatalf("first read resolved v%d, want v%d", h.Meta().Version, n)
	}
	x := []float64{4, 1, 20}
	if got, want := h.Predict(x), loadPredict(t, reg, "m", 0, x); got != want {
		t.Fatalf("first predict %v, registry decode %v", got, want)
	}
	if got := c.Pinned(); got != 1 {
		t.Fatalf("Pinned() = %d after the first predict, want 1", got)
	}

	misses := r.Counter("serve.modelcache.misses")
	before := misses.Value()
	saveTinyModel(t, reg, "direct", 2, 510)
	if got := c.Pinned(); got != 2 {
		t.Fatalf("Pinned() = %d after a registration outside a job, want 2", got)
	}
	h, err = c.Entry("direct", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := misses.Value(); got != before {
		t.Fatalf("first read of a model registered outside a job faulted: misses %d -> %d", before, got)
	}
	if got, want := h.Predict(x), loadPredict(t, reg, "direct", 1, x); got != want {
		t.Fatalf("pinned direct registration predicts %v, registry decode %v", got, want)
	}
}

// TestHotCacheExplicitVersionKeepsLatest pins that a read by version
// number never becomes what version 0 answers from: after an explicit
// read of an old version of a never-served name, a version-0 read still
// resolves the registry's newest.
func TestHotCacheExplicitVersionKeepsLatest(t *testing.T) {
	reg, err := NewModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewModelCache(reg, ServingOptions{CoalesceWindow: -1}, nil)
	reg.SetOnSave(c.Refresh)
	saveJobModel(t, reg, "m", 1, 601)
	saveJobModel(t, reg, "m", 2, 602)
	h, err := c.Entry("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Meta().Version != 1 {
		t.Fatalf("Entry(m, 1) resolved v%d", h.Meta().Version)
	}
	h, err = c.Entry("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Meta().Version != 2 {
		t.Fatalf("after an explicit v1 read, version 0 resolved v%d, want v2", h.Meta().Version)
	}
}

// TestHotCacheUnservedExplicitReadStaysPinned pins the LRU bound of a
// name with no pinned latest: with no old versions kept, an explicit read
// of a version only a job registered stays pinned for the next read
// instead of being evicted by its own fault.
func TestHotCacheUnservedExplicitReadStaysPinned(t *testing.T) {
	reg, err := NewModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	c := NewModelCache(reg, ServingOptions{KeepOldVersions: -1, CoalesceWindow: -1}, r)
	reg.SetOnSave(c.Refresh)
	saveJobModel(t, reg, "m", 1, 651)
	saveJobModel(t, reg, "m", 2, 652)
	for i := 0; i < 2; i++ {
		if _, err := c.Entry("m", 1); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, evictions := r.Counter("serve.modelcache.hits").Value(),
		r.Counter("serve.modelcache.misses").Value(), r.Counter("serve.modelcache.evictions").Value()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("two reads of m@v1: hits/misses/evictions = %d/%d/%d, want 1/1/0", hits, misses, evictions)
	}
}

// TestHotCacheFirstReadsRaceSaves races first version-0 reads of fresh
// names against Saves of them (run it under -race): every answer must
// come from a version at least as new as every Save that had returned
// before the read began, and must match a registry decode of that
// version bit for bit. Once the last Save returned, version 0 resolves
// it.
func TestHotCacheFirstReadsRaceSaves(t *testing.T) {
	reg, err := NewModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewModelCache(reg, ServingOptions{CoalesceWindow: -1}, nil)
	reg.SetOnSave(c.Refresh)
	models := []*hm.Model{tinyModel(t, 1, 701), tinyModel(t, 4, 702)}
	x := []float64{2, 3, 40}
	const rounds, saves, readers = 12, 4, 4

	type answer struct {
		version int
		value   float64
	}
	for round := 0; round < rounds; round++ {
		name := fmt.Sprintf("m%d", round)
		var saved atomic.Int64 // newest version whose Save returned
		done := make(chan struct{})
		start := make(chan struct{})
		answers := make([]map[answer]bool, readers) // distinct answers per reader
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				answers[i] = map[answer]bool{}
				<-start
				for {
					select {
					case <-done:
						return
					default:
					}
					before := int(saved.Load())
					h, err := c.Entry(name, 0)
					if err != nil {
						if before > 0 {
							t.Errorf("%s: read after v%d was saved: %v", name, before, err)
							return
						}
						continue
					}
					if v := h.Meta().Version; v < before {
						t.Errorf("%s: read began after v%d was saved, answered from v%d", name, before, v)
						return
					}
					answers[i][answer{h.Meta().Version, h.Predict(x)}] = true
				}
			}(i)
		}
		close(start)
		for v := 1; v <= saves; v++ {
			if _, err := reg.Save(name, models[v%2], jobMeta); err != nil {
				t.Fatal(err)
			}
			saved.Store(int64(v))
		}
		close(done)
		wg.Wait()
		if t.Failed() {
			return
		}
		h, err := c.Entry(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.Meta().Version != saves {
			t.Fatalf("%s: after the last Save, version 0 resolved v%d, want v%d", name, h.Meta().Version, saves)
		}
		for _, as := range answers {
			for a := range as {
				if want := loadPredict(t, reg, name, a.version, x); a.value != want {
					t.Fatalf("%s@v%d: predicted %v, registry decode %v", name, a.version, a.value, want)
				}
			}
		}
	}
}

// TestHotCacheGCUnpinsPrunedVersions pins the save hook's prune side:
// a version registry GC deletes is unpinned, so explicit-version reads
// of it fail as they do against the registry, and a served name whose
// pinned latest GC pruned stays served: the job's new version is pinned
// in its place, so the next version-0 read is a hit.
func TestHotCacheGCUnpinsPrunedVersions(t *testing.T) {
	r := obs.NewRegistry()
	s, err := NewServerOpts(t.TempDir(), ServerOptions{Workers: 1, GCKeepVersions: 1, Obs: r})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, c := s.Manager().Models(), s.Cache()
	misses := r.Counter("serve.modelcache.misses")
	version := func(v int) int {
		t.Helper()
		h, err := c.Entry("m", v)
		if err != nil {
			t.Fatal(err)
		}
		return h.Meta().Version
	}
	gone := func(v int) {
		t.Helper()
		if _, err := c.Entry("m", v); err == nil || !strings.Contains(err.Error(), "not found") {
			t.Fatalf("Entry(m, %d) after GC pruned it: err %v, want not found", v, err)
		}
	}
	saveJobModel(t, reg, "m", 1, 901)
	if version(0) != 1 {
		t.Fatal("first version-0 read did not pin m@v1")
	}
	// A job's save of v2 prunes v1, the pinned latest: v2 takes its
	// place, and the next version-0 read answers from it without a fault.
	saveJobModel(t, reg, "m", 2, 902)
	if n := c.Pinned(); n != 1 {
		t.Fatalf("Pinned() = %d after a job's save of served m pruned its latest, want 1 (m@v2)", n)
	}
	before := misses.Value()
	if version(0) != 2 {
		t.Fatal("version-0 read after the prune does not serve m@v2")
	}
	if got := misses.Value(); got != before {
		t.Fatalf("version-0 read after the prune faulted: misses %d -> %d", before, got)
	}
	gone(1)
	// A save outside any job pins v3 at once; the prune of v2 leaves it.
	saveTinyModel(t, reg, "m", 3, 903)
	gone(2)
	if n := c.Pinned(); n != 1 {
		t.Fatalf("Pinned() = %d, want 1 (m@v3)", n)
	}
	if version(0) != 3 {
		t.Fatal("version-0 read does not serve m@v3")
	}
}

// TestCoalescerBatchesConcurrentPredicts drives one pinned model from
// many goroutines through a wide coalescing window and asserts (a) the
// requests really were gathered into shared PredictBatch calls, and
// (b) every answer is bit-identical to the per-row reference — batch
// composition is scheduling-dependent, results are not.
func TestCoalescerBatchesConcurrentPredicts(t *testing.T) {
	reg, err := NewModelRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saveTinyModel(t, reg, "m", 2, 301)
	r := obs.NewRegistry()
	c := NewModelCache(reg, ServingOptions{CoalesceWindow: 2 * time.Millisecond}, r)
	h, err := c.Entry("m", 0)
	if err != nil {
		t.Fatal(err)
	}

	const n = 48
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, n)
	want := make([]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 10, rng.Float64() * 5, rng.Float64() * 100}
		want[i] = loadPredict(t, reg, "m", 1, rows[i])
	}

	got := make([]float64, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = h.Predict(rows[i])
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: coalesced predict %v, reference %v", i, got[i], want[i])
		}
	}
	batches := r.Counter("serve.predict.batches").Value()
	if batches == 0 || batches >= n {
		t.Fatalf("%d predicts flushed as %d batches: no coalescing happened", n, batches)
	}
	if max := r.Histogram("serve.predict.batch_size", nil).Max(); max < 2 {
		t.Fatalf("largest coalesced batch held %.0f rows, want >= 2", max)
	}

	// The memo short-circuits repeats: same exact bits, same answer,
	// no second model walk.
	miss := r.Counter("serve.predict.memo.misses").Value()
	if again := h.Predict(rows[0]); again != want[0] {
		t.Fatalf("memoized repeat predicts %v, want %v", again, want[0])
	}
	if r.Counter("serve.predict.memo.misses").Value() != miss {
		t.Fatal("repeat of an identical vector missed the memo")
	}
	if r.Counter("serve.predict.memo.hits").Value() == 0 {
		t.Fatal("memo hit counter never moved")
	}
}

// panicModel is a model whose every prediction panics with errPredict.
// It counts the batches it is asked to score.
type panicModel struct{ batches *atomic.Int32 }

var errPredict = errors.New("predict failed")

func (panicModel) Predict([]float64) float64 { panic(errPredict) }

func (m panicModel) PredictBatch([][]float64, []float64) {
	m.batches.Add(1)
	panic(errPredict)
}

// TestCoalescerPanicReleasesFollowers scores concurrent predicts with a
// model whose PredictBatch panics: every predict, leader or follower,
// must fail with the model's panic value instead of blocking on the
// batch or returning a zero prediction.
func TestCoalescerPanicReleasesFollowers(t *testing.T) {
	co := &coalescer{window: 20 * time.Millisecond}
	m := panicModel{batches: new(atomic.Int32)}
	const n = 16
	failures := make(chan any, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { failures <- recover() }()
			<-start
			co.predict(m, []float64{float64(i)})
		}(i)
	}
	close(start)
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case r := <-failures:
			if r != errPredict {
				t.Fatalf("a predict of a failed batch ended with %v, want a %q panic", r, errPredict)
			}
		case <-timeout:
			t.Fatalf("%d of %d predicts still blocked on a failed batch", n-i, n)
		}
	}
	if b := m.batches.Load(); b >= n {
		t.Fatalf("%d predicts ran as %d batches: no follower was exercised", n, b)
	}
}

// TestWarmupPinsRegistryLatests is the S2 startup contract: opening a
// server over a data directory that already holds registered models
// pre-pins every model's latest version into the cache, so the first
// predict after a daemon restart never pays a cold registry decode.
// Asserted through the serve.modelcache.warmed counter and Pinned(),
// the same signals the serve-smoke CI job checks.
func TestWarmupPinsRegistryLatests(t *testing.T) {
	dataDir := t.TempDir()
	reg, err := NewModelRegistry(filepath.Join(dataDir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	saveTinyModel(t, reg, "alpha", 1.0, 3)
	saveTinyModel(t, reg, "alpha", 2.0, 4) // latest of alpha is v2
	saveTinyModel(t, reg, "beta", 5.0, 5)

	r := obs.NewRegistry()
	s, err := NewServerOpts(dataDir, ServerOptions{Workers: 1, Obs: r})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if got := s.Cache().Pinned(); got != 2 {
		t.Fatalf("Pinned()=%d after startup over 2 models, want 2", got)
	}
	if got := r.Counter("serve.modelcache.warmed").Value(); got != 2 {
		t.Fatalf("serve.modelcache.warmed=%d, want 2", got)
	}
	// The warm entries are the registry latests, answering bit-identically
	// to a cold decode without faulting.
	misses := r.Counter("serve.modelcache.misses").Value()
	x := []float64{1.5, 2.5, 30}
	for name, version := range map[string]int{"alpha": 2, "beta": 1} {
		h, err := s.Cache().Entry(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.Meta().Version != version {
			t.Fatalf("%s: warmed version %d, want latest %d", name, h.Meta().Version, version)
		}
		if got, want := h.Predict(x), loadPredict(t, s.Cache().reg, name, version, x); got != want {
			t.Fatalf("%s: warmed predict %v, cold reference %v", name, got, want)
		}
	}
	if now := r.Counter("serve.modelcache.misses").Value(); now != misses {
		t.Fatalf("warm reads faulted: misses %d -> %d", misses, now)
	}
}
