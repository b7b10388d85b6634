package serve

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// memo is one pinned version's prediction memo: it replays the value
// model.PredictBatch returned for a request vector, keyed on the
// vector's exact float64 bits, so a replayed answer is bit-identical to
// a fresh one.
//
// It admits a vector on its second request, not its first. A first
// answer lands in a fixed probation ring; a hit there promotes the
// vector into the protected segment, which alone is bounded by the
// memo's cap. A stream of one-off vectors therefore costs at most the
// ring, however long the daemon runs, while the vectors clients repeat
// are served from memory from their second request on. This is the
// admission window of W-TinyLFU (Einziger et al., ACM TOS 2017), without
// the frequency sketch.
//
// Every predict handler reads the memo at once, so it is sharded by key
// hash — one mutex per shard, the shard count rounded up to a power of
// two at or above GOMAXPROCS — and each shard keeps its own ring and its
// own share of the cap.
type memo struct {
	shards []memoShard
	shift  uint // 64 − log2(len(shards)): a hash's top bits pick its shard
	// perShard bounds each shard's protected entries (0 = unbounded). A
	// promotion into a full shard first evicts about half of its
	// protected entries — map iteration order stands in for random
	// replacement, which keeps recency bookkeeping off the hit path.
	perShard  int
	ring      int          // probation slots per shard
	evictions *obs.Counter // nil-safe; counts evicted protected entries
}

// memoShard holds probationary and protected entries in one map, so a
// hit costs one lookup whichever segment holds it. ring lists the
// probationary keys in admission order. It grows with the admissions up
// to the memo's ring size, so a version nobody asks costs no window;
// from then on admitting a new key overwrites the oldest slot and drops
// that key if it is still on probation there.
type memoShard struct {
	mu        sync.Mutex
	m         map[string]memoEntry
	ring      []string
	next      int // the ring slot the next admission overwrites once full
	protected int // entries of m with slot == protectedSlot
}

type memoEntry struct {
	v    float64
	slot int32 // ring slot while on probation, protectedSlot once promoted
}

const (
	protectedSlot = -1
	// memoWindowDiv sizes the probation ring: MemoCap/64 entries over all
	// shards, 4,096 at the default cap.
	memoWindowDiv = 64
	// memoKeyBytes is the stack buffer a lookup encodes its key into:
	// room for 64 features, above the 43 of a configuration plus
	// datasize. Longer vectors spill the key to the heap.
	memoKeyBytes = 64 * 8
)

// FNV-1a constants, matching hash/fnv's 64a variant.
const (
	memoFNVOffset uint64 = 14695981039346656037
	memoFNVPrime  uint64 = 1099511628211
)

// newMemo returns an empty memo whose protected segment holds at most
// maxEntries vectors (0 = unbounded). The probation ring holds
// maxEntries/64 of them in all, or defaultMemoCap/64 when unbounded.
// evictions, when non-nil, counts protected entries dropped by the cap.
func newMemo(maxEntries int, evictions *obs.Counter) *memo {
	n, shift := 1, uint(64)
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
		shift--
	}
	c := &memo{shards: make([]memoShard, n), shift: shift, evictions: evictions}
	window := defaultMemoCap / memoWindowDiv
	if maxEntries > 0 {
		c.perShard = max(1, (maxEntries+n-1)/n)
		window = maxEntries / memoWindowDiv
	}
	c.ring = max(1, (window+n-1)/n)
	for i := range c.shards {
		c.shards[i].m = make(map[string]memoEntry)
	}
	return c
}

// key appends x's exact bits to buf, 8 bytes per element little-endian
// (ga.Key's encoding), and returns the key with the shard that an FNV-1a
// hash over its words picks.
func (c *memo) key(buf []byte, x []float64) ([]byte, *memoShard) {
	h := memoFNVOffset
	for _, v := range x {
		w := math.Float64bits(v)
		buf = binary.LittleEndian.AppendUint64(buf, w)
		h = (h ^ w) * memoFNVPrime
	}
	return buf, &c.shards[h>>c.shift]
}

// lookup returns the memoized value for key, promoting it out of
// probation on its first hit. It allocates nothing: the map read
// converts key without copying, and a promotion reuses the string the
// admission allocated.
func (c *memo) lookup(s *memoShard, key []byte) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[string(key)]
	if ok && e.slot != protectedSlot {
		k := s.ring[e.slot]
		s.ring[e.slot] = ""
		c.makeRoom(s)
		s.m[k] = memoEntry{v: e.v, slot: protectedSlot}
		s.protected++
	}
	return e.v, ok
}

// store admits key on probation with value v, or updates it in place
// if a concurrent miss on the same vector stored it first.
func (c *memo) store(s *memoShard, key []byte, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[string(key)]; ok {
		e.v = v
		s.m[string(key)] = e
		return
	}
	k := string(key)
	slot := int32(len(s.ring))
	if len(s.ring) < c.ring {
		s.ring = append(s.ring, k)
	} else {
		slot = int32(s.next)
		if old, ok := s.m[s.ring[slot]]; ok && old.slot == slot {
			delete(s.m, s.ring[slot])
		}
		s.ring[slot] = k
		if s.next++; s.next == len(s.ring) {
			s.next = 0
		}
	}
	s.m[k] = memoEntry{v: v, slot: slot}
}

// makeRoom evicts about half of a full shard's protected entries.
// Probationary entries are left to the ring.
func (c *memo) makeRoom(s *memoShard) {
	if c.perShard == 0 || s.protected < c.perShard {
		return
	}
	drop := s.protected - c.perShard/2
	c.evictions.Add(int64(drop))
	for k, e := range s.m {
		if drop == 0 {
			break
		}
		if e.slot == protectedSlot {
			delete(s.m, k)
			s.protected--
			drop--
		}
	}
}
