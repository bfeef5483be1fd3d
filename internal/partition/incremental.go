// Incremental re-planning fast path. Streaming campaigns re-run the
// partitioner every iteration, so planning latency bounds campaign
// goodput. The Incremental planner exploits how little the input usually
// changes between consecutive iterations: it keeps a keyed plan cache
// (exact reuse of a previously solved batch under the same cluster view;
// the same LRU type as the process-wide SharedCache) and, when a
// tolerance is configured, patches the previous plan in place of a full
// solve — removing departed sequences and greedily re-placing only the
// arrivals — whenever the batch delta is small and structurally local.
// Any change in rank speeds (the effective-speed view), elastic resize,
// capacity change, or structurally large delta invalidates the fast path
// and falls back to the full hierarchical solve.
//
// The patch path is engineered for latency: the previous placement lives
// in a roster sorted by sequence ID, so the batch delta is a two-pointer
// merge (no per-call map churn); feasibility is judged on the load vector
// alone and the patched plan is then built in a single pass over one flat
// backing array, with all transient state in reused scratch buffers.
// Patched plans are cost-equal to full solves within MaxImbalanceDrift
// (the golden tests pin this), and every fast-path decision is
// deterministic, so campaigns running over an Incremental planner remain
// bit-reproducible per (Config, seed).
package partition

import (
	"fmt"
	"slices"
	"sort"

	"zeppelin/internal/seq"
)

// PlanMode identifies how the Incremental planner produced a plan.
type PlanMode uint8

// The four fast-path outcomes: a full hierarchical solve, a patch of the
// previous plan, an exact hit in the planner's own cache, or an exact
// hit in the process-wide shared tier (IncrementalConfig.Shared).
const (
	PlanFull PlanMode = iota
	PlanPatched
	PlanCached
	PlanShared
)

// String names a mode for stats output and decision records.
func (m PlanMode) String() string {
	switch m {
	case PlanFull:
		return "full"
	case PlanPatched:
		return "patched"
	case PlanCached:
		return "cached"
	case PlanShared:
		return "shared"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Counters accumulates fast-path decisions over a planner's lifetime.
type Counters struct {
	Full    int `json:"full"`
	Patched int `json:"patched"`
	Cached  int `json:"cached"`
	// Shared counts exact hits served from the process-wide shared tier
	// (IncrementalConfig.Shared) instead of this planner's own cache.
	Shared int `json:"shared,omitempty"`
}

// Plans returns the total number of Plan calls counted.
func (c Counters) Plans() int { return c.Full + c.Patched + c.Cached + c.Shared }

// IncrementalConfig tunes the fast path.
type IncrementalConfig struct {
	// MaxDeltaFrac is the largest fraction of the incoming batch's tokens
	// that may differ from the previous batch for patching to apply. Zero
	// disables patching entirely — the planner then only reuses exact
	// keyed-cache hits, which are bit-identical to full solves, the mode
	// campaigns use when stream identity matters.
	MaxDeltaFrac float64
	// Shared, when set, is the process-wide plan cache tier: after a
	// local cache miss (and before patching) the planner probes it for an
	// exact full-solve hit, and every full solve it performs is published
	// back. Shared holds full solves only — pure functions of the inputs
	// — so hits are bit-identical to re-solving and the planner's
	// determinism guarantees are unchanged. Nil keeps the planner fully
	// private.
	Shared *SharedCache
}

// Fast-path bounds. DefaultCacheCap bounds each planner's keyed plan
// cache (entries). MaxImbalanceDrift self-regulates patch quality: a
// patched plan whose load imbalance exceeds (1 + drift) × the imbalance
// of the planner's last full solve is discarded and re-solved in full.
// This catches the discontinuous cases — a threshold shift that would
// have re-split a long sequence — where greedy patching cannot follow
// the full algorithm. MaxPatchRun bounds consecutive patches before a
// forced full solve, so patch chains cannot drift arbitrarily far from a
// solved base.
const (
	DefaultCacheCap   = 16
	MaxImbalanceDrift = 0.15
	MaxPatchRun       = 16
)

// Incremental is a stateful planner for re-planning hot paths. Not safe
// for concurrent use; a campaign owns exactly one.
type Incremental struct {
	inc  IncrementalConfig
	part *Partitioner

	cache planCache // entries carry the drift anchor they were solved under

	// Patch base: the most recent plan, its per-rank token loads, and its
	// placement roster sorted by sequence ID.
	haveBase    bool
	cfgWorld    int
	cfgNodes    int
	cfgCapacity int
	speeds      []float64 // the base's speed view, never nil
	res         *Result
	loads       []int
	roster      []placedSeq
	rosterDup   bool // duplicate IDs in base batch: merge diff is ambiguous
	minS0       int

	// baseImb is the load imbalance of the current patch base (the last
	// full solve or cache adoption); patchRun counts consecutive patches
	// since then.
	baseImb  float64
	patchRun int

	counters Counters

	// Reused scratch.
	curBuf   []placedSeq // incoming batch sorted by ID
	nextBuf  []placedSeq // next roster under construction (swapped in)
	added    []addedSeq
	removed  []placedSeq
	loadsBuf []int
	load     loadVec // arrival placement over loadsBuf
	ones     []float64
	share    []int
	rmIDs    []int // removed-ID set, ascending (roster order)
	arrHead  []int // per-rank arrival chain heads (index into added)
	arrNext  []int // arrival chain links
}

// placedSeq is one roster entry: a sequence and where the plan holds it.
type placedSeq struct {
	s    seq.Sequence
	rank int32 // owning rank for local placements; -1 for ring sequences
	ring bool
}

// addedSeq is an arrival pending greedy placement, remembering its slot
// in the next roster so the chosen rank can be written back.
type addedSeq struct {
	s   seq.Sequence
	pos int
}

// NewIncremental builds an incremental planner.
func NewIncremental(inc IncrementalConfig) *Incremental {
	if inc.MaxDeltaFrac < 0 {
		inc.MaxDeltaFrac = 0
	}
	return &Incremental{inc: inc, cache: newPlanCache(DefaultCacheCap)}
}

// Counters reports the cumulative fast-path decision counts.
func (p *Incremental) Counters() Counters { return p.counters }

// Reset drops the plan cache and patch state, returning the planner to
// cold. Campaigns call it at start so a reused planner instance is
// deterministic run over run.
func (p *Incremental) Reset() {
	p.cache.entries = p.cache.entries[:0]
	p.haveBase = false
	p.res = nil
	p.counters = Counters{}
	p.baseImb = 0
	p.patchRun = 0
}

// Plan produces a placement for the batch under the configuration,
// taking the fastest sound path: an exact hit in the planner's own cache
// or the shared tier, a patch of the previous plan, or a full solve. The
// returned Result is immutable — callers and the caches share it.
func (p *Incremental) Plan(cfg Config, batch []seq.Sequence) (*Result, PlanMode, error) {
	if err := cfg.validate(); err != nil {
		return nil, PlanFull, err
	}
	key := p.cache.hash(cfg, batch)

	// Exact keyed reuse: same cluster view, capacity, and batch.
	if e := p.cache.get(key, cfg, batch); e != nil {
		p.counters.Cached++
		res, baseImb, patchRun := e.res, e.baseImb, e.patchRun
		p.rebuildBase(cfg, res)
		// Restore the entry's drift anchor: a cached patched plan keeps
		// the full-solve baseline it was judged against.
		p.baseImb = baseImb
		p.patchRun = patchRun
		return res, PlanCached, nil
	}

	res, mode, err := p.planMiss(cfg, batch)
	if err != nil {
		return nil, PlanFull, err
	}
	// Front the plan in the local cache with the drift anchor the miss
	// path left behind: the rebuilt base's own imbalance and patch run 0
	// after a full solve or shared hit, the advanced patch run after a
	// patch.
	e, _ := p.cache.put(key, cfg, batch, res)
	e.baseImb, e.patchRun = p.baseImb, p.patchRun
	return res, mode, nil
}

// planMiss plans a batch the local cache does not hold: a shared-tier
// hit, a patch of the previous plan, or a full solve, in that order.
func (p *Incremental) planMiss(cfg Config, batch []seq.Sequence) (*Result, PlanMode, error) {
	// Exact hit in the process-wide shared tier: another planner already
	// full-solved these inputs. The result is bit-identical to solving
	// here, so adopt it as this planner's patch base (its own imbalance is
	// the drift anchor, exactly as a fresh full solve would set).
	if p.inc.Shared != nil {
		if res, ok := p.inc.Shared.Get(cfg, batch); ok {
			p.counters.Shared++
			p.rebuildBase(cfg, res)
			return res, PlanShared, nil
		}
	}

	// Patch the previous plan when the delta is small and structural
	// conditions hold. tryPatch installs the new base itself.
	if res, ok := p.tryPatch(cfg, batch); ok {
		p.counters.Patched++
		p.patchRun++
		return res, PlanPatched, nil
	}

	// Full hierarchical solve, reusing the partitioner's scratch.
	if p.part == nil {
		part, err := New(cfg)
		if err != nil {
			return nil, PlanFull, err
		}
		p.part = part
	} else if err := p.part.Reconfigure(cfg); err != nil {
		return nil, PlanFull, err
	}
	res, err := p.part.Plan(batch)
	if err != nil {
		return nil, PlanFull, err
	}
	p.counters.Full++
	p.rebuildBase(cfg, res)
	// Full solves are pure functions of (cfg, batch): publish to the
	// shared tier so concurrent requests and sessions dedupe the work.
	// Patched plans above never publish — they are history-dependent.
	if p.inc.Shared != nil {
		p.inc.Shared.Put(cfg, batch, res)
	}
	return res, PlanFull, nil
}

// rebuildBase reconstructs the patch base from a solved plan: per-rank
// loads plus the ID-sorted placement roster. Runs on full solves and
// cache adoptions only; patches maintain the base incrementally. In
// exact mode (MaxDeltaFrac 0) there is nothing to patch, so the roster
// and load accounting are skipped entirely — exact-mode planning is
// then the stateless solve plus a cache probe and nothing else.
func (p *Incremental) rebuildBase(cfg Config, res *Result) {
	if p.inc.MaxDeltaFrac <= 0 {
		return
	}
	p.haveBase = true
	p.cfgWorld = cfg.Cluster.World()
	p.cfgNodes = cfg.Cluster.Nodes
	p.cfgCapacity = cfg.CapacityTokens
	speed := orOnes(cfg.Speeds, p.cfgWorld, &p.ones)
	p.speeds = append(p.speeds[:0], speed...)
	p.res = res
	p.loads = res.Plan.TokensPerRankInto(p.loads, p.share)

	roster := p.roster[:0]
	for r, ls := range res.Plan.Local {
		for _, s := range ls {
			roster = append(roster, placedSeq{s: s, rank: int32(r)})
		}
	}
	for _, ring := range res.Plan.Rings {
		roster = append(roster, placedSeq{s: ring.Seq, rank: -1, ring: true})
	}
	slices.SortFunc(roster, func(a, b placedSeq) int { return a.s.ID - b.s.ID })
	p.roster = roster
	p.rosterDup = false
	for i := 1; i < len(roster); i++ {
		if roster[i].s.ID == roster[i-1].s.ID {
			p.rosterDup = true
			break
		}
	}

	p.minS0 = cfg.CapacityTokens
	for _, s0 := range res.S0 {
		if s0 < p.minS0 {
			p.minS0 = s0
		}
	}
	p.baseImb = effImbalance(p.loads, speed)
	p.patchRun = 0
}

// tryPatch attempts the delta patch. It never mutates planner state on
// failure; on success it installs the patched plan as the new base.
func (p *Incremental) tryPatch(cfg Config, batch []seq.Sequence) (*Result, bool) {
	if !p.haveBase || p.rosterDup || p.inc.MaxDeltaFrac <= 0 || p.patchRun >= MaxPatchRun {
		return nil, false
	}
	// Structural invalidation: elastic resize, capacity change, or any
	// change in rank speeds forces the full solve — a patched plan would
	// balance against a stale cluster view.
	if p.cfgWorld != cfg.Cluster.World() || p.cfgNodes != cfg.Cluster.Nodes ||
		p.cfgCapacity != cfg.CapacityTokens {
		return nil, false
	}
	speed := orOnes(cfg.Speeds, p.cfgWorld, &p.ones)
	if !slices.Equal(p.speeds, speed) {
		return nil, false
	}

	removed, added, next, deltaTokens, total, ok := p.diff(batch)
	if !ok {
		return nil, false
	}
	if total == 0 || float64(deltaTokens) > p.inc.MaxDeltaFrac*float64(total) {
		return nil, false
	}
	// Arrivals must be local-zone everywhere (below every node's intra
	// threshold): longer sequences need the ring machinery of the full
	// solve.
	for _, a := range added {
		if a.s.Len >= p.minS0 {
			return nil, false
		}
	}

	// Phase 1 — loads and feasibility, touching only scratch so a decline
	// leaves no trace. The plan is not built yet: placement needs only
	// the load vector, and deferring construction means a failed patch
	// costs no plan copy and a successful one is built in a single pass.
	base := p.res.Plan
	loads := grow(p.loadsBuf, len(p.loads))
	p.loadsBuf = loads
	copy(loads, p.loads)
	rmIDs := p.rmIDs[:0]
	for _, rm := range removed {
		rmIDs = append(rmIDs, rm.s.ID) // roster order: ascending IDs
		if rm.ring {
			if !uncountRing(base, rm.s.ID, loads, &p.share) {
				p.rmIDs = rmIDs
				return nil, false
			}
			continue
		}
		if !uncountLocal(base, int(rm.rank), rm.s.ID, loads) {
			p.rmIDs = rmIDs
			return nil, false
		}
	}
	p.rmIDs = rmIDs

	// Greedy placement of arrivals, longest first — the same
	// least-time-loaded criterion Alg. 2 uses for the local zone. The
	// chosen rank is written back into the next roster through each
	// arrival's remembered slot.
	L := cfg.CapacityTokens
	slices.SortFunc(added, func(a, b addedSeq) int {
		if a.s.Len != b.s.Len {
			return b.s.Len - a.s.Len
		}
		return a.s.ID - b.s.ID
	})
	p.load.init(loads, speed)
	for _, a := range added {
		d := p.load.argmin()
		if loads[d]+a.s.Len > L {
			return nil, false
		}
		p.load.add(d, a.s.Len)
		next[a.pos].rank = int32(d)
	}

	// Quality self-regulation: a patch whose balance drifts past the
	// full-solve base would hide a restructuring the full algorithm wants
	// (threshold shift, re-split); discard it and solve in full.
	if effImbalance(loads, speed) > p.baseImb*(1+MaxImbalanceDrift) {
		return nil, false
	}

	// Phase 2 — build the patched plan in one pass: survivors copied in
	// base order minus the removed IDs, arrivals appended per rank in
	// placement order (identical content to cutting then appending).
	res := p.buildPatched(base, len(batch), added, next, rmIDs)

	// Commit: swap in the next roster and loads; the old buffers become
	// scratch for the following patch.
	p.res = res
	p.roster, p.nextBuf = next, p.roster
	p.loads, p.loadsBuf = loads, p.loads
	return res, true
}

// buildPatched assembles the patched plan. Every local list slices into
// one flat backing array (capped three-index, so a stray external append
// cannot clobber a neighbor), and rings are the base's minus removals.
// nLocal bounds the flat array: every local entry is a batch member.
func (p *Incremental) buildPatched(base *seq.Plan, nLocal int, added []addedSeq, next []placedSeq, rmIDs []int) *Result {
	world := base.World
	// Per-rank arrival chains, linked in reverse so traversal from each
	// head yields placement order.
	p.arrHead = grow(p.arrHead, world)
	for i := range p.arrHead {
		p.arrHead[i] = -1
	}
	p.arrNext = grow(p.arrNext, len(added))
	for i := len(added) - 1; i >= 0; i-- {
		r := int(next[added[i].pos].rank)
		p.arrNext[i] = p.arrHead[r]
		p.arrHead[r] = i
	}

	plan := seq.NewPlan(world)
	if len(base.Rings) > 0 {
		plan.Rings = make([]seq.Ring, 0, len(base.Rings))
		for _, ring := range base.Rings {
			if !idRemoved(rmIDs, ring.Seq.ID) {
				plan.Rings = append(plan.Rings, ring)
			}
		}
	}
	flat := make([]seq.Sequence, 0, nLocal)
	for r := 0; r < world; r++ {
		start := len(flat)
		for _, s := range base.Local[r] {
			if !idRemoved(rmIDs, s.ID) {
				flat = append(flat, s)
			}
		}
		for i := p.arrHead[r]; i >= 0; i = p.arrNext[i] {
			flat = append(flat, added[i].s)
		}
		if len(flat) > start {
			plan.Local[r] = flat[start:len(flat):len(flat)]
		}
	}
	return &Result{Plan: plan, S1: p.res.S1, S0: append([]int(nil), p.res.S0...)}
}

// idRemoved reports whether id is in the ascending removed-ID set.
// Roster IDs are unique (rosterDup gates patching), so a global set is
// zone-correct.
func idRemoved(rmIDs []int, id int) bool {
	i := sort.SearchInts(rmIDs, id)
	return i < len(rmIDs) && rmIDs[i] == id
}

// uncountLocal subtracts a departed local sequence from its rank's load,
// reporting false if the roster and plan disagree (patch declines).
func uncountLocal(plan *seq.Plan, rank, id int, loads []int) bool {
	for _, s := range plan.Local[rank] {
		if s.ID == id {
			loads[rank] -= s.Len
			return true
		}
	}
	return false
}

// uncountRing subtracts a departed ring's per-member token shares.
func uncountRing(plan *seq.Plan, id int, loads []int, share *[]int) bool {
	for _, ring := range plan.Rings {
		if ring.Seq.ID != id {
			continue
		}
		*share = ring.TokensPerRankInto(*share)
		for j, r := range ring.Ranks {
			loads[r] -= (*share)[j]
		}
		return true
	}
	return false
}

// diff computes the delta between the base roster and the incoming batch
// as a two-pointer merge over ID-sorted views, and assembles the next
// roster (matched entries keep their placement; arrivals hold a
// placeholder rank their greedy slot fills in). Duplicate IDs on either
// side make placement bookkeeping ambiguous and decline the patch.
func (p *Incremental) diff(batch []seq.Sequence) (removed []placedSeq, added []addedSeq, next []placedSeq, deltaTokens, total int, ok bool) {
	cur := p.curBuf[:0]
	sorted := true
	for i, s := range batch {
		cur = append(cur, placedSeq{s: s})
		total += s.Len
		if i > 0 && batch[i-1].ID >= s.ID {
			sorted = false
		}
	}
	p.curBuf = cur
	if !sorted {
		// Samplers emit ascending IDs and arrivals append larger ones, so
		// streams are usually pre-sorted; pay the sort only when not.
		slices.SortFunc(cur, func(a, b placedSeq) int { return a.s.ID - b.s.ID })
	}
	for i := 1; i < len(cur); i++ {
		if cur[i].s.ID == cur[i-1].s.ID {
			return nil, nil, nil, 0, 0, false
		}
	}

	next = p.nextBuf[:0]
	removed = p.removed[:0]
	added = p.added[:0]
	base := p.roster
	i, j := 0, 0
	for i < len(base) || j < len(cur) {
		switch {
		case i == len(base) || (j < len(cur) && cur[j].s.ID < base[i].s.ID):
			added = append(added, addedSeq{s: cur[j].s, pos: len(next)})
			next = append(next, placedSeq{s: cur[j].s, rank: -2})
			deltaTokens += cur[j].s.Len
			j++
		case j == len(cur) || base[i].s.ID < cur[j].s.ID:
			removed = append(removed, base[i])
			deltaTokens += base[i].s.Len
			i++
		case base[i].s.Len == cur[j].s.Len:
			next = append(next, base[i])
			i++
			j++
		default:
			// Same ID, new length: departure plus arrival.
			removed = append(removed, base[i])
			deltaTokens += base[i].s.Len
			added = append(added, addedSeq{s: cur[j].s, pos: len(next)})
			next = append(next, placedSeq{s: cur[j].s, rank: -2})
			deltaTokens += cur[j].s.Len
			i++
			j++
		}
	}
	p.nextBuf = next
	p.removed = removed
	p.added = added
	return removed, added, next, deltaTokens, total, true
}

// effImbalance is LoadImbalance over a precomputed load vector.
func effImbalance(loads []int, speeds []float64) float64 {
	var sum, max float64
	for i, t := range loads {
		eff := float64(t)
		if speeds != nil {
			eff /= speeds[i]
		}
		sum += eff
		if eff > max {
			max = eff
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(loads)))
}

// LoadImbalance is the cost metric the fast path is judged by: the
// maximum over ranks of effective token load (tokens/speed; nil speeds
// are all ones) divided by the mean. Patched plans must stay within
// tolerance of the full solve's value.
func LoadImbalance(plan *seq.Plan, speeds []float64) float64 {
	return effImbalance(plan.TokensPerRank(), speeds)
}
