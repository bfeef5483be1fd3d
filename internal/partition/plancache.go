package partition

import (
	"hash/maphash"
	"math"
	"slices"

	"zeppelin/internal/seq"
)

// planCache is the exact-key LRU behind both plan-cache tiers: each
// Incremental planner's own cache and the process-wide SharedCache. It
// is not safe for concurrent use; SharedCache guards its instance with a
// mutex.
type planCache struct {
	cap     int
	seed    maphash.Seed
	entries []planEntry // front = most recently used; tiny, scanned linearly
	keyBuf  []byte      // hash scratch
}

// planEntry is one cached plan plus the exact inputs that produced it.
// Key collisions are survivable: every lookup re-compares the full
// inputs, the hash only prunes. The node split is compared, not just the
// world: a 2×8 and a 4×4 cluster share a world of 16 but bucket
// sequences differently. Results are immutable once cached (patching
// copies, never mutates).
type planEntry struct {
	key      uint64
	nodes    int
	perNode  int
	capacity int
	speeds   []float64
	batch    []seq.Sequence
	res      *Result

	// baseImb and patchRun snapshot an Incremental planner's drift
	// anchor at insertion, so adopting a cached *patched* plan as the new
	// patch base restores its original full-solve anchor instead of
	// re-anchoring on the drifted value (which would compound
	// MaxImbalanceDrift cycle over cycle). The shared tier leaves them
	// zero.
	baseImb  float64
	patchRun int
}

func newPlanCache(cap int) planCache {
	return planCache{cap: cap, seed: maphash.MakeSeed()}
}

// hash folds the node shape, capacity, speed view, and batch into one
// flat-buffer hash (per-field Write calls are measurable at
// thousand-sequence batch sizes).
func (c *planCache) hash(cfg Config, batch []seq.Sequence) uint64 {
	need := 8 * (4 + len(cfg.Speeds) + 1 + 2*len(batch))
	if cap(c.keyBuf) < need {
		c.keyBuf = make([]byte, need)
	}
	b := c.keyBuf[:0]
	put := func(u uint64) {
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	put(uint64(cfg.Cluster.Nodes))
	put(uint64(cfg.Cluster.GPUsPerNode))
	put(uint64(cfg.CapacityTokens))
	put(uint64(len(cfg.Speeds)))
	for _, s := range cfg.Speeds {
		put(math.Float64bits(s))
	}
	put(uint64(len(batch)))
	for _, s := range batch {
		put(uint64(s.ID))
		put(uint64(s.Len))
	}
	c.keyBuf = b
	return maphash.Bytes(c.seed, b)
}

// get returns the entry whose key and exact inputs match, promoting it
// to the front; nil on a miss.
func (c *planCache) get(key uint64, cfg Config, batch []seq.Sequence) *planEntry {
	for i := range c.entries {
		e := &c.entries[i]
		if e.key != key || e.nodes != cfg.Cluster.Nodes || e.perNode != cfg.Cluster.GPUsPerNode ||
			e.capacity != cfg.CapacityTokens {
			continue
		}
		if !slices.Equal(e.speeds, cfg.Speeds) || !slices.Equal(e.batch, batch) {
			continue
		}
		if i != 0 {
			hit := *e
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = hit
		}
		return &c.entries[0]
	}
	return nil
}

// put fronts a new entry for inputs that missed and returns it; evicted
// reports that the LRU tail was dropped to make room.
func (c *planCache) put(key uint64, cfg Config, batch []seq.Sequence, res *Result) (e *planEntry, evicted bool) {
	if len(c.entries) < c.cap {
		c.entries = append(c.entries, planEntry{})
	} else {
		evicted = true
	}
	copy(c.entries[1:], c.entries[:len(c.entries)-1])
	c.entries[0] = planEntry{
		key:      key,
		nodes:    cfg.Cluster.Nodes,
		perNode:  cfg.Cluster.GPUsPerNode,
		capacity: cfg.CapacityTokens,
		speeds:   slices.Clone(cfg.Speeds),
		batch:    append([]seq.Sequence(nil), batch...),
		res:      res,
	}
	return &c.entries[0], evicted
}
