// Shared plan cache: the fleet-wide tier above the per-planner LRU.
// One zeppelind process serves many concurrent plan requests and
// campaign sessions, and under fleet traffic the same (cluster view,
// capacity, batch) inputs recur across them — identical curl bodies,
// replayed campaign specs, many clients planning the same cell. The
// per-Incremental cache cannot help there: each request and each
// session owns its own planner. SharedCache is the process-wide exact
// tier they all publish full solves into and probe before solving.
//
// Soundness rests on one invariant: the cache stores *full-solve
// results only*. A full hierarchical solve is a pure function of
// (Nodes, GPUsPerNode, CapacityTokens, Speeds, batch), so an exact hit
// is bit-identical to re-solving — regardless of which planner, request,
// or session produced the entry. Patched plans are history-dependent
// (they drift from whatever base their planner happened to hold) and
// are never published. Every hit therefore preserves the repo-wide
// bit-identical-responses contract at any cache state and worker count.
package partition

import (
	"sync"

	"zeppelin/internal/seq"
)

// DefaultSharedCap is the shared tier's entry bound when the configured
// capacity is not positive.
const DefaultSharedCap = 256

// SharedCache is a concurrency-safe exact-key LRU of full-solve plans,
// shared across planners. The zero value is unusable; build with
// NewSharedCache. All methods are safe for concurrent use.
type SharedCache struct {
	mu        sync.Mutex
	lru       planCache // guarded by mu
	hits      uint64
	misses    uint64
	evictions uint64
}

// SharedCacheStats is a point-in-time counter snapshot.
type SharedCacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped off the LRU tail to make room —
	// a full cache churning under distinct inputs.
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// NewSharedCache builds a shared tier bounded to cap entries
// (DefaultSharedCap when cap <= 0).
func NewSharedCache(cap int) *SharedCache {
	if cap <= 0 {
		cap = DefaultSharedCap
	}
	return &SharedCache{lru: newPlanCache(cap)}
}

// Get returns the published full solve for the exact inputs, promoting
// the entry to the front. Every call counts as a hit or a miss.
func (c *SharedCache) Get(cfg Config, batch []seq.Sequence) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.lru.get(c.lru.hash(cfg, batch), cfg, batch); e != nil {
		c.hits++
		return e.res, true
	}
	c.misses++
	return nil, false
}

// Put publishes a full-solve result. The caller must only pass results
// that are pure functions of (cfg, batch) — full solves, never patched
// plans — and must treat res as immutable afterwards. A concurrent
// duplicate publish (two planners solving the same key at once) is
// deduplicated rather than stored twice.
func (c *SharedCache) Put(cfg Config, batch []seq.Sequence, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := c.lru.hash(cfg, batch)
	if c.lru.get(key, cfg, batch) != nil {
		return
	}
	if _, evicted := c.lru.put(key, cfg, batch, res); evicted {
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *SharedCache) Stats() SharedCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SharedCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.lru.entries), Capacity: c.lru.cap,
	}
}
