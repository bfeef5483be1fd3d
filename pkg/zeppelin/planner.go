package zeppelin

import (
	"context"
	"sync"

	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	zep "zeppelin/internal/zeppelin"
)

// Planner answers one-shot plan requests: sample the batch, run the
// partitioner (and, for Zeppelin, the Eq. 2 remapping solve), then
// simulate the planned iteration end to end. A Planner is safe for
// concurrent use; plans are deterministic per request.
type Planner struct {
	mu          sync.Mutex
	incremental bool
	// inc is the session-owned incremental planner, built lazily on the
	// first Zeppelin plan and reused across calls so repeated or
	// slightly-churned batches hit its plan cache.
	inc *zep.Incremental
	// cache is the optional process-wide shared plan tier. Without
	// WithIncremental, each Zeppelin Plan call probes it through a
	// call-owned exact-mode planner — concurrent requests never
	// serialize, and responses stay bit-identical at every cache state.
	cache *PlanCache
}

// PlannerOption configures NewPlanner.
type PlannerOption func(*Planner)

// WithIncremental backs the planner's Zeppelin plans by the stateful
// incremental re-planner: exact-mode caching and delta patching across
// Plan calls, bit-identical plans, PlanMode reported in responses.
func WithIncremental() PlannerOption {
	return func(p *Planner) { p.incremental = true }
}

// WithPlanCache shares a process-wide plan cache tier across this
// planner's Zeppelin plans. Exact repeats of (cluster view, capacity,
// batch) reuse the solved partition plan instead of re-solving; hits
// are bit-identical to full solves, so responses are unchanged by cache
// state. Unlike WithIncremental, cache-backed stateless plans do not
// serialize concurrent callers and do not report PlanMode (a response
// must not leak whether the cache was warm). A nil cache is ignored.
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

// method resolves the request's method, swapping in the session-owned
// incremental planner when enabled and the request asks for Zeppelin.
func (p *Planner) method(req PlanRequest) (trainer.Method, *zep.Incremental, error) {
	m, err := methodByID(req.Method)
	if err != nil {
		return nil, nil, err
	}
	zm, ok := m.(zep.Method)
	if !ok {
		return m, nil, nil
	}
	if !p.incremental {
		if p.cache != nil {
			// Call-owned exact-mode planner over the shared tier: probes
			// and publishes full solves, holds no cross-call state, and
			// therefore needs no planner lock. Exact mode keeps the result
			// bit-identical to the stateless solve.
			return zep.NewIncremental(zm, partition.IncrementalConfig{
				Shared: p.cache.sharedTier(),
			}), nil, nil
		}
		return zm, nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inc == nil {
		p.inc = zep.NewIncremental(zm, partition.IncrementalConfig{
			Shared: p.cache.sharedTier(),
		})
	}
	return p.inc, p.inc, nil
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
	cfg, dataset, _, err := req.resolve()
	if err != nil {
		return nil, err
	}
	m, inc, err := p.method(req)
	if err != nil {
		return nil, err
	}
	batch := cfg.Batch(dataset.Batch)

	// Only the incremental planner carries shared mutable state; the
	// stateless path builds a fresh method, env, and batch per call, so
	// concurrent stateless plans run unserialized.
	lock := func() {
		if inc != nil {
			p.mu.Lock()
		}
	}
	unlock := func() {
		if inc != nil {
			p.mu.Unlock()
		}
	}

	// Planning pass: build the placement once to read the plan facts.
	lock()
	env, err := cfg.NewEnv()
	if err != nil {
		unlock()
		return nil, err
	}
	pl, err := m.Plan(env, batch)
	if err != nil {
		unlock()
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
	if inc != nil {
		resp.PlanMode = inc.LastStats().Mode.String()
	}
	unlock()

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

// Plan is the package-level convenience: a fresh stateless Planner
// answering one request.
func Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return NewPlanner().Plan(ctx, req)
}
