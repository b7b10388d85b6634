package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ga"
	"repro/internal/model"
	"repro/internal/obs"
)

// This file is the daemon's hot serving path. The registry's Load
// re-reads and re-decodes a snapshot from disk on every call — fine for
// jobs that load a model once per search, hopeless for a predict
// endpoint meant to answer thousands of times per second. ModelCache
// pins decoded models in memory keyed by (name, version) behind a
// copy-on-write state pointer: readers resolve a model with one atomic
// load and a map lookup, never taking a lock, never blocking on a
// writer, and never observing a torn model (entries are immutable after
// construction; only the state pointer is swapped).
//
// Each pinned entry carries its own prediction memo (sharded like
// ga.GenomeCache, keyed on the request vector's exact feature bits via
// model.VectorKey) and its own coalescer (coalesce.go), so the memo and
// the batches can never mix rows from different model versions.

// ServingOptions tune the hot serving path. The zero value selects the
// defaults.
type ServingOptions struct {
	// CoalesceWindow is how long the first request of a batch waits for
	// company before flushing (default 200µs; negative flushes
	// immediately, coalescing only what arrived in the meantime).
	CoalesceWindow time.Duration
	// MaxBatch flushes a batch early once it has this many rows
	// (default 64).
	MaxBatch int
	// KeepOldVersions bounds how many non-latest versions per model stay
	// pinned; the least recently used is evicted first. The latest
	// version is always pinned. Default 4; negative keeps none.
	KeepOldVersions int
	// MemoCap bounds each pinned version's prediction memo entry count
	// (default 1<<18 ≈ 260k vectors ≈ tens of MB per hot version;
	// negative = unbounded). Overflow evicts cheaply — see
	// ga.NewGenomeCacheCap — and is counted in
	// serve.predict.memo.evictions.
	MemoCap int
}

const (
	defaultCoalesceWindow  = 200 * time.Microsecond
	defaultMaxBatch        = 64
	defaultKeepOldVersions = 4
	defaultMemoCap         = 1 << 18
)

// withDefaults resolves the zero-value knobs.
func (o ServingOptions) withDefaults() ServingOptions {
	if o.CoalesceWindow == 0 {
		o.CoalesceWindow = defaultCoalesceWindow
	}
	if o.CoalesceWindow < 0 {
		o.CoalesceWindow = 0
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = defaultMaxBatch
	}
	if o.KeepOldVersions == 0 {
		o.KeepOldVersions = defaultKeepOldVersions
	}
	if o.KeepOldVersions < 0 {
		o.KeepOldVersions = 0
	}
	if o.MemoCap == 0 {
		o.MemoCap = defaultMemoCap
	}
	if o.MemoCap < 0 {
		o.MemoCap = 0 // unbounded
	}
	return o
}

// modelKey addresses one pinned decoded model.
type modelKey struct {
	name    string
	version int
}

// hotModel is one decoded model pinned in the cache. Everything except
// lastUsed is immutable after construction, which is what makes lockless
// reads safe: a reader that obtained a *hotModel can use it forever,
// even after eviction.
type hotModel struct {
	model model.Model
	meta  ModelMeta
	memo  *ga.GenomeCache
	co    *coalescer
	cache *ModelCache
	// lastUsed is a recency tick for LRU eviction among old versions.
	lastUsed atomic.Int64
}

// Meta returns the pinned version's registry metadata.
func (h *hotModel) Meta() ModelMeta { return h.meta }

// Predict answers one request vector through the memo and, on a miss,
// the coalescer. Results are bit-identical to h.model.Predict(x): the
// memo key is the vector's exact bits and the coalescer's batches go
// through model.PredictBatch, whose contract is bit-identity with
// per-row Predict.
func (h *hotModel) Predict(x []float64) float64 {
	key := model.VectorKey(x)
	if v, ok := h.memo.Lookup(key); ok {
		h.cache.memoHits.Inc()
		return v
	}
	h.cache.memoMisses.Inc()
	v := h.co.predict(h.model, x)
	h.memo.Store(key, v)
	return v
}

// cacheState is the cache's immutable snapshot: byKey holds every pinned
// version, latest the highest pinned version per name. Writers build a
// new state and swap the pointer; readers load it once per request.
type cacheState struct {
	byKey  map[modelKey]*hotModel
	latest map[string]*hotModel
}

// ModelCache is the hot-model cache over a ModelRegistry. Reads
// (Entry) are wait-free against writers; faults, registration refreshes
// and evictions serialize on mu and publish with one atomic swap.
type ModelCache struct {
	reg *ModelRegistry
	opt ServingOptions

	state atomic.Pointer[cacheState]
	tick  atomic.Int64
	mu    sync.Mutex // writers only: fault, refresh, eviction

	hits, misses, evictions *obs.Counter
	warmed                  *obs.Counter
	memoHits, memoMisses    *obs.Counter
	memoEvictions           *obs.Counter
	batches                 *obs.Counter
	batchSize               *obs.Histogram
}

// batchSizeBounds bucket coalesced-batch sizes up to the default cap.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// NewModelCache builds an empty cache over reg, recording its hit/miss,
// eviction, memo, and coalescing metrics into r (nil disables metrics).
// Wire reg.SetOnSave(c.Refresh) to have new registrations swapped in as
// they land; until the hook fires (or without it), version-0 reads serve
// the pinned latest and fault lazily.
func NewModelCache(reg *ModelRegistry, opt ServingOptions, r *obs.Registry) *ModelCache {
	c := &ModelCache{
		reg:           reg,
		opt:           opt.withDefaults(),
		hits:          r.Counter("serve.modelcache.hits"),
		misses:        r.Counter("serve.modelcache.misses"),
		evictions:     r.Counter("serve.modelcache.evictions"),
		warmed:        r.Counter("serve.modelcache.warmed"),
		memoHits:      r.Counter("serve.predict.memo.hits"),
		memoMisses:    r.Counter("serve.predict.memo.misses"),
		memoEvictions: r.Counter("serve.predict.memo.evictions"),
		batches:       r.Counter("serve.predict.batches"),
		batchSize:     r.Histogram("serve.predict.batch_size", batchSizeBounds),
	}
	c.state.Store(&cacheState{
		byKey:  map[modelKey]*hotModel{},
		latest: map[string]*hotModel{},
	})
	return c
}

// Entry resolves (name, version) to a pinned model, faulting it in from
// the registry on a miss. version 0 selects the highest version the
// cache has seen for name (kept current by the Refresh hook). The hot
// path — a hit — is one atomic load and one map read.
func (c *ModelCache) Entry(name string, version int) (*hotModel, error) {
	st := c.state.Load()
	var h *hotModel
	if version == 0 {
		h = st.latest[name]
	} else {
		h = st.byKey[modelKey{name, version}]
	}
	if h != nil {
		c.hits.Inc()
		h.lastUsed.Store(c.tick.Add(1))
		return h, nil
	}
	c.misses.Inc()
	return c.fault(name, version)
}

// fault loads a missing version from the registry and installs it.
func (c *ModelCache) fault(name string, version int) (*hotModel, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Another request may have faulted the same version in while we
	// waited for the writer lock.
	st := c.state.Load()
	var h *hotModel
	if version == 0 {
		h = st.latest[name]
	} else {
		h = st.byKey[modelKey{name, version}]
	}
	if h != nil {
		h.lastUsed.Store(c.tick.Add(1))
		return h, nil
	}
	mdl, meta, err := c.reg.Load(name, version)
	if err != nil {
		return nil, err
	}
	// The same decoded version may already be pinned when the request
	// asked for version 0 and the cached latest lags the registry.
	if h = st.byKey[modelKey{meta.Name, meta.Version}]; h == nil {
		h = c.newHotModel(mdl, meta)
	}
	c.installLocked(h)
	return h, nil
}

func (c *ModelCache) newHotModel(mdl model.Model, meta ModelMeta) *hotModel {
	h := &hotModel{
		model: mdl,
		meta:  meta,
		memo:  ga.NewGenomeCacheCap(c.opt.MemoCap, c.memoEvictions),
		co: &coalescer{
			window:   c.opt.CoalesceWindow,
			maxBatch: c.opt.MaxBatch,
			batches:  c.batches,
			sizes:    c.batchSize,
		},
		cache: c,
	}
	h.lastUsed.Store(c.tick.Add(1))
	return h
}

// installLocked publishes h in a new state snapshot: pin it by key,
// promote it to latest if it is the highest version seen (latest never
// moves backwards, so version-0 responses stay monotonic), and evict
// the least recently used old versions beyond the per-name bound.
// Caller holds c.mu.
func (c *ModelCache) installLocked(h *hotModel) {
	old := c.state.Load()
	st := &cacheState{
		byKey:  make(map[modelKey]*hotModel, len(old.byKey)+1),
		latest: make(map[string]*hotModel, len(old.latest)+1),
	}
	for k, v := range old.byKey {
		st.byKey[k] = v
	}
	for k, v := range old.latest {
		st.latest[k] = v
	}
	name := h.meta.Name
	st.byKey[modelKey{name, h.meta.Version}] = h
	if cur, ok := st.latest[name]; !ok || h.meta.Version > cur.meta.Version {
		st.latest[name] = h
	}
	// LRU bound on this name's non-latest versions.
	latestV := st.latest[name].meta.Version
	var olds []*hotModel
	for k, v := range st.byKey {
		if k.name == name && k.version != latestV {
			olds = append(olds, v)
		}
	}
	for len(olds) > c.opt.KeepOldVersions {
		lru := 0
		for i, v := range olds {
			if v.lastUsed.Load() < olds[lru].lastUsed.Load() {
				lru = i
			}
		}
		delete(st.byKey, modelKey{name, olds[lru].meta.Version})
		olds[lru] = olds[len(olds)-1]
		olds = olds[:len(olds)-1]
		c.evictions.Inc()
	}
	c.state.Store(st)
}

// Refresh pins name's current registry latest and swaps it in — the
// ModelRegistry.SetOnSave hook, called after every successful Save, so a
// retrain becomes visible to version-0 readers with one pointer swap and
// zero reader stalls. A load failure leaves the previous state serving;
// the next Entry fault retries.
func (c *ModelCache) Refresh(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mdl, meta, err := c.reg.Load(name, 0)
	if err != nil {
		return
	}
	st := c.state.Load()
	if cur, ok := st.latest[name]; ok && cur.meta.Version >= meta.Version {
		return
	}
	if h, ok := st.byKey[modelKey{meta.Name, meta.Version}]; ok {
		c.installLocked(h) // already pinned: just promote to latest
		return
	}
	c.installLocked(c.newHotModel(mdl, meta))
}

// WarmAll pins every model's current registry latest — daemon-startup
// warmup, so the first predict after a restart is answered from memory
// instead of faulting a decode on the request path. Pinned versions are
// counted in serve.modelcache.warmed. A model that fails to load is
// skipped (the next Entry fault retries it). Returns how many versions
// were newly pinned.
func (c *ModelCache) WarmAll() int {
	metas, err := c.reg.List()
	if err != nil {
		return 0
	}
	warmed := 0
	for _, m := range metas {
		before := c.Pinned()
		c.Refresh(m.Name)
		if c.Pinned() > before {
			warmed++
			c.warmed.Inc()
		}
	}
	return warmed
}

// Pinned reports how many decoded versions the cache currently holds
// (tests and the bench report use it).
func (c *ModelCache) Pinned() int {
	return len(c.state.Load().byKey)
}
