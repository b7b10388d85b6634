package serve

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

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
// A version is decoded and pinned when a client first asks for it, not
// when a job registers it. The registry's save hook (Refresh), which also
// unpins the versions registry GC pruned, swaps a job's new version in
// only for names that already have a pinned latest, so a daemon whose
// jobs register models nobody predicts against holds none of them: each
// such registration costs its file write and nothing more. A model a
// program registers through Save itself, outside any job, is registered
// to be served and is pinned at once.
//
// Each pinned entry carries its own prediction memo (memo.go, keyed on
// the request vector's exact feature bits) and its own coalescer
// (coalesce.go), so the memo and the batches can never mix rows from
// different model versions. The memo admits a vector on its second
// request: a first answer waits in a small probation ring, so one-off
// vectors cost a bounded window rather than a share of the cap, and the
// memo's size follows the set of vectors clients repeat.

// ServingOptions tune the hot serving path. The zero value selects the
// defaults.
type ServingOptions struct {
	// CoalesceWindow is how long the first request of a batch waits for
	// company before flushing (default 200µs; negative flushes
	// immediately, coalescing only what arrived in the meantime).
	CoalesceWindow time.Duration
	// KeepOldVersions bounds how many non-latest versions per model stay
	// pinned; the least recently used is evicted first. The latest
	// version of a served model is always pinned. Only models a client
	// has predicted against (or that startup warmed, or that were
	// registered outside a job) keep versions: a job's registration pins
	// nothing by itself. Default 4; negative keeps none.
	KeepOldVersions int
	// MemoCap bounds the vectors each pinned version's prediction memo
	// keeps after their second request (default 1<<18; negative =
	// unbounded). At about 500 B per vector the default allows about
	// 130 MB per version, but only vectors asked for at least twice reach
	// it; first answers wait in a probation ring of MemoCap/64 vectors
	// (4,096 at the default). Overflow evicts about half of a shard's
	// protected entries and is counted in serve.predict.memo.evictions.
	MemoCap int
}

const (
	defaultCoalesceWindow  = 200 * time.Microsecond
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
	memo  *memo
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
	var buf [memoKeyBytes]byte
	key, s := h.memo.key(buf[:0], x)
	if v, ok := h.memo.lookup(s, key); ok {
		h.cache.memoHits.Inc()
		return v
	}
	h.cache.memoMisses.Inc()
	v := h.co.predict(h.model, x)
	h.memo.store(s, key, v)
	return v
}

// cacheState is the cache's immutable snapshot: byKey holds every pinned
// version, latest the highest pinned version per name. Writers build a
// new state and swap the pointer; readers load it once per request.
type cacheState struct {
	byKey  map[modelKey]*hotModel
	latest map[string]*hotModel
}

// clone returns a copy of s for a writer to modify and publish.
func (s *cacheState) clone() *cacheState {
	return &cacheState{byKey: maps.Clone(s.byKey), latest: maps.Clone(s.latest)}
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
// Wire reg.SetOnSave(c.Refresh) to have new registrations of served
// names, and registrations made outside a job, swapped in, and the
// versions registry GC prunes unpinned, as they land.
// Without the hook, version-0 reads serve the pinned latest as it
// stands. Either way the first version-0 read of a name with no pinned
// latest faults in its registry latest.
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

// lookup resolves (name, version) in s: version 0 selects name's pinned
// latest.
func (s *cacheState) lookup(name string, version int) *hotModel {
	if version == 0 {
		return s.latest[name]
	}
	return s.byKey[modelKey{name, version}]
}

// Entry resolves (name, version) to a pinned model, faulting it in from
// the registry on a miss. version 0 selects name's pinned latest, which
// the first version-0 read faults in from the registry and the Refresh
// hook keeps current from then on. The hot path — a hit — is one atomic
// load and one map read.
func (c *ModelCache) Entry(name string, version int) (*hotModel, error) {
	if h := c.state.Load().lookup(name, version); h != nil {
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
	cur := c.state.Load()
	if h := cur.lookup(name, version); h != nil {
		h.lastUsed.Store(c.tick.Add(1))
		return h, nil
	}
	st := cur.clone()
	var h *hotModel
	if version == 0 {
		var err error
		if h, _, err = c.pinLatestLocked(st, name); err != nil {
			return nil, err
		}
	} else {
		mdl, meta, err := c.reg.Load(name, version)
		if err != nil {
			return nil, err
		}
		h = c.newHotModel(mdl, meta)
		c.installLocked(st, h)
	}
	c.state.Store(st)
	return h, nil
}

func (c *ModelCache) newHotModel(mdl model.Model, meta ModelMeta) *hotModel {
	h := &hotModel{
		model: mdl,
		meta:  meta,
		memo:  newMemo(c.opt.MemoCap, c.memoEvictions),
		co: &coalescer{
			window:  c.opt.CoalesceWindow,
			batches: c.batches,
			sizes:   c.batchSize,
		},
		cache: c,
	}
	h.lastUsed.Store(c.tick.Add(1))
	return h
}

// pinLatestLocked pins name's current registry latest in st and promotes
// it to latest, unless latest already holds that version or a newer one:
// latest never moves backwards, so version-0 responses stay monotonic.
// It returns name's latest after the call and whether it decoded a
// version that was not pinned before. Version-0 faults, Refresh and
// WarmAll all pin through here; a version a client asked for by number
// says nothing about whether it is the registry's latest. Caller holds
// c.mu and publishes st.
func (c *ModelCache) pinLatestLocked(st *cacheState, name string) (*hotModel, bool, error) {
	mdl, meta, err := c.reg.Load(name, 0)
	if err != nil {
		return nil, false, err
	}
	if cur, ok := st.latest[name]; ok && cur.meta.Version >= meta.Version {
		return cur, false, nil
	}
	h, decoded := st.byKey[modelKey{meta.Name, meta.Version}], false
	if h == nil {
		h, decoded = c.newHotModel(mdl, meta), true
	}
	st.latest[meta.Name] = h
	c.installLocked(st, h)
	return h, decoded, nil
}

// installLocked pins h by key in st and evicts the least recently used
// old versions of its name beyond the per-name bound. Caller holds c.mu
// and publishes st.
func (c *ModelCache) installLocked(st *cacheState, h *hotModel) {
	name := h.meta.Name
	st.byKey[modelKey{name, h.meta.Version}] = h
	// LRU bound on this name's non-latest versions. While no version-0
	// read has pinned a latest, the version just installed stands in for
	// it, so a name keeps at most KeepOldVersions+1 versions either way
	// and an explicit read is never evicted by its own fault.
	keep := h.meta.Version
	if cur, ok := st.latest[name]; ok {
		keep = cur.meta.Version
	}
	var olds []*hotModel
	for k, v := range st.byKey {
		if k.name == name && k.version != keep {
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
}

// Refresh is the registry's save hook, called once after every
// successful Save with the new version's metadata and the versions
// registry GC pruned after it. In one pass under mu, it first decides
// whether the name is served (it has a pinned latest, from a version-0
// read or WarmAll), then unpins the pruned versions, so they stop
// answering explicit-version predicts as they stop loading from the
// registry. Then, when the name was served or no job made the
// registration (meta.Job is 0: a program that registers a model through
// Save itself does so to serve it), it pins the new registry latest and
// swaps it in. Readers see one atomic swap, so a retrain becomes visible
// to version-0 readers with zero reader stalls, even when GC pruned the
// latest it replaces. A job's registration of an unserved name pins
// nothing: the name's first version-0 read faults in the registry
// latest, which Save wrote before the hook ran. Deciding under mu orders
// Refresh against a first fault: either the fault's Load sees the new
// version, or its latest is installed before Refresh looks. A load
// failure leaves the previous state serving, less the pruned versions;
// the next Entry fault retries.
func (c *ModelCache) Refresh(meta ModelMeta, pruned []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Load()
	_, served := cur.latest[meta.Name]
	pin := served || meta.Job == 0
	if !pin && len(pruned) == 0 {
		return
	}
	st := cur.clone()
	for _, v := range pruned {
		delete(st.byKey, modelKey{meta.Name, v})
		if h := st.latest[meta.Name]; h != nil && h.meta.Version == v {
			delete(st.latest, meta.Name)
		}
	}
	if pin {
		c.pinLatestLocked(st, meta.Name)
	}
	c.state.Store(st)
}

// WarmAll pins every model's current registry latest — daemon-startup
// warmup, so the first predict after a restart is answered from memory
// instead of faulting a decode on the request path, and every warmed
// name is kept current by Refresh from then on. Pinned versions are
// counted in serve.modelcache.warmed. A model that fails to load is
// skipped (the next Entry fault retries it). Returns how many versions
// were newly pinned.
func (c *ModelCache) WarmAll() int {
	metas, err := c.reg.List()
	if err != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load().clone()
	warmed := 0
	for _, m := range metas {
		if _, decoded, _ := c.pinLatestLocked(st, m.Name); decoded {
			warmed++
			c.warmed.Inc()
		}
	}
	c.state.Store(st)
	return warmed
}

// Pinned reports how many decoded versions the cache currently holds
// (tests and the bench report use it).
func (c *ModelCache) Pinned() int {
	return len(c.state.Load().byKey)
}
