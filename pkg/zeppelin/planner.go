package zeppelin

import (
	"context"

	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
)

// Planner answers one-shot plan requests: sample the batch, run the
// partitioner (and, for Zeppelin, the Eq. 2 remapping solve), then
// simulate the planned iteration end to end. A Planner is safe for
// concurrent use; plans are deterministic per request.
type Planner struct {
	// cache is the optional process-wide shared plan tier; each Zeppelin
	// Plan call probes it through its own call-owned planner, so
	// concurrent requests never serialize.
	cache *PlanCache
}

// PlannerOption configures NewPlanner.
type PlannerOption func(*Planner)

// WithPlanCache shares a process-wide plan cache tier across this
// planner's Zeppelin plans. Exact repeats of (cluster view, capacity,
// batch) reuse the solved partition plan instead of re-solving; hits
// are bit-identical to full solves, so responses are unchanged by cache
// state. A nil cache is ignored.
func WithPlanCache(c *PlanCache) PlannerOption {
	return func(p *Planner) { p.cache = c }
}

// NewPlanner builds a planner; see the options for behavior switches.
func NewPlanner(opts ...PlannerOption) *Planner {
	p := &Planner{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// planCarrier is implemented by placements that expose their partition
// plan (the Zeppelin planners do; even-split baselines have none).
type planCarrier interface{ Plan() *seq.Plan }

// remapCarrier is implemented by placements that expose their Eq. 2
// remapping solution.
type remapCarrier interface{ RemapPlan() *remap.Plan }

// Plan resolves the request, plans the sampled batch, and simulates the
// resulting iteration. The context is checked between the planning and
// simulation stages; a cancelled context returns ctx.Err().
func (p *Planner) Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, dataset, m, err := req.resolve()
	if err != nil {
		return nil, err
	}
	m = p.cache.planner(m)
	batch := cfg.Batch(dataset.Batch)

	// Planning pass: build the placement once to read the plan facts.
	env, err := cfg.NewEnv()
	if err != nil {
		return nil, err
	}
	pl, err := m.Plan(env, batch)
	if err != nil {
		return nil, err
	}
	resp := &PlanResponse{
		Method: m.Name(),
		World:  env.C.World(),
		Seqs:   len(batch),
		Tokens: seq.TotalLen(batch),
	}
	if pc, ok := pl.(planCarrier); ok {
		plan := pc.Plan()
		resp.TokensPerRank = plan.TokensPerRank()
		resp.Imbalance = partition.LoadImbalance(plan, nil)
		for _, ls := range plan.Local {
			resp.LocalSeqs += len(ls)
		}
		resp.RingSeqs = len(plan.Rings)
	}
	if rc, ok := pl.(remapCarrier); ok {
		if rp := rc.RemapPlan(); rp != nil {
			resp.RemapTransfers = len(rp.Transfers)
			resp.RemapInterTokens = rp.InterTokens
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Simulation pass: the end-to-end iteration readout, reusing the
	// placement and environment the planning pass built so the partition
	// is solved exactly once per request.
	res, err := trainer.RunPlanned(cfg, m.Name(), env, pl, batch)
	if err != nil {
		return nil, err
	}
	resp.IterTimeSec = res.IterTime
	resp.TokensPerSec = res.TokensPerSec
	resp.HostOverheadSec = res.HostOverhead
	return resp, nil
}

// Plan is the package-level convenience: a fresh cache-less Planner
// answering one request.
func Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return NewPlanner().Plan(ctx, req)
}
