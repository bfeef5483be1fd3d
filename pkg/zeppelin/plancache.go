package zeppelin

import (
	"zeppelin/internal/partition"
	"zeppelin/internal/trainer"
	zep "zeppelin/internal/zeppelin"
)

// DefaultPlanCacheEntries is the shared plan cache's entry bound when
// NewPlanCache is given a non-positive capacity.
const DefaultPlanCacheEntries = partition.DefaultSharedCap

// PlanCache is the process-wide shared plan cache tier: a
// concurrency-safe, hit/miss-counting LRU of solved partition plans
// keyed by the exact planning inputs (node shape, per-device capacity,
// effective-speed view, and batch). One PlanCache is shared across
// every plan request and campaign session wired to it, so identical
// cluster/workload specs dedupe the partition solve fleet-wide.
//
// Only full solves — pure functions of the inputs — are ever stored, so
// a cache hit is bit-identical to re-solving: responses do not depend
// on cache state, worker count, or which request populated the entry.
type PlanCache struct {
	shared *partition.SharedCache
}

// PlanCacheStats is a point-in-time snapshot of the cache counters —
// the payload zeppelind's /v1/stats reports under "plan_cache": exact-key
// hits and misses since process start, LRU evictions, and the resident
// entry count against its capacity.
type PlanCacheStats = partition.SharedCacheStats

// NewPlanCache builds a shared plan cache bounded to `entries` plans
// (DefaultPlanCacheEntries when entries <= 0).
func NewPlanCache(entries int) *PlanCache {
	return &PlanCache{shared: partition.NewSharedCache(entries)}
}

// Stats snapshots the hit/miss counters.
func (p *PlanCache) Stats() PlanCacheStats { return p.shared.Stats() }

// planner is the one planning path of every request resolved here: a
// Zeppelin method plans through its own exact-mode incremental planner,
// which probes and publishes to the shared tier when one is wired (p is
// nil-safe). Exact mode is bit-identical to the stateless solve, so
// responses and event streams do not depend on it. Other methods are
// returned unchanged.
func (p *PlanCache) planner(m trainer.Method) trainer.Method {
	zm, ok := m.(zep.Method)
	if !ok {
		return m
	}
	return zep.NewIncremental(zm, partition.IncrementalConfig{Shared: p.sharedTier()})
}

// sharedTier unwraps the internal cache; nil-safe so call sites can
// plumb an optional *PlanCache straight through.
func (p *PlanCache) sharedTier() *partition.SharedCache {
	if p == nil {
		return nil
	}
	return p.shared
}
