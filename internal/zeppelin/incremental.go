// Incremental planning front-end: the re-planning fast path of the
// campaign hot loop. It plans through the partition-level incremental
// planner (keyed plan cache + delta patching), so iterations whose batch
// repeats skip the hierarchical partitioning pass.
package zeppelin

import (
	"zeppelin/internal/partition"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
)

// Incremental is a stateful Zeppelin method: functionally the wrapped
// configuration, but planning through a persistent incremental planner.
// In exact mode (MaxDeltaFrac 0) every produced placement is bit-identical
// to what the stateless Method would build — repeated batches are served
// from the plan cache, everything else is a full solve — so campaigns
// over an Incremental method emit identical IterRecord streams. With a
// positive MaxDeltaFrac, small batch deltas are patched onto the previous
// plan: cost-equal within tolerance, not bit-identical.
//
// Not safe for concurrent use: one campaign (or one benchmark loop) owns
// one instance. The campaign layer resets it at Run start so reusing an
// instance across runs stays deterministic.
type Incremental struct {
	m       Method
	planner *partition.Incremental
	last    partition.PlanMode
}

// NewIncremental wraps a Zeppelin configuration with incremental planning
// state. The partition.IncrementalConfig tunes the fast path: zero
// MaxDeltaFrac for exact (campaign-safe) reuse, a positive fraction to
// allow delta patching.
func NewIncremental(m Method, cfg partition.IncrementalConfig) *Incremental {
	return &Incremental{m: m, planner: partition.NewIncremental(cfg)}
}

// Name matches the wrapped configuration so campaign tables and golden
// comparisons line up method by method.
func (z *Incremental) Name() string { return z.m.Name() }

// SpeedAware mirrors Method: the planner plans against the effective-speed
// view.
func (z *Incremental) SpeedAware() bool { return true }

// ResetPlanner drops all cached planning state; the campaign layer calls
// it at Run start (campaign.Replanner).
func (z *Incremental) ResetPlanner() {
	z.planner.Reset()
	z.last = partition.PlanFull
}

// PlannerCounters exposes the cumulative fast-path decision counts.
func (z *Incremental) PlannerCounters() partition.Counters { return z.planner.Counters() }

// LastPlanMode names the most recent Plan call's fast path for decision
// tracing: "full", "patched", "cached", or "shared" (an exact hit served
// from the process-wide tier). Implements campaign.PlanModeReporter.
func (z *Incremental) LastPlanMode() string { return z.last.String() }

// Plan is Method.Plan through the incremental fast path.
func (z *Incremental) Plan(env *trainer.Env, batch []seq.Sequence) (trainer.Placement, error) {
	pcfg, err := partitionConfig(env, batch)
	if err != nil {
		return nil, err
	}
	res, mode, err := z.planner.Plan(pcfg, batch)
	if err != nil {
		return nil, err
	}
	z.last = mode
	// Cache hits were validated when first solved; revalidating every
	// reuse would put the O(n) conservation check back on the fast path.
	return z.m.place(env, batch, res.Plan, pcfg.Speeds, mode != partition.PlanCached && mode != partition.PlanShared)
}
