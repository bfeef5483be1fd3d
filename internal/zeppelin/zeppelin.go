// Package zeppelin assembles the paper's system: the hierarchical
// sequence partitioner (§3.1), the three-queue attention engine (§3.2),
// the communication routing layer (§3.3), and the remapping layer (§3.4),
// exposed as a trainer.Method. The Routing and Remap switches reproduce
// the ablated configurations of Fig. 11.
package zeppelin

import (
	"fmt"

	"zeppelin/internal/attention"
	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/routing"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
	"zeppelin/internal/trainer"
)

// Method is Zeppelin with configurable components. Full Zeppelin enables
// both; the partitioner and attention engine are always on (they are the
// placement itself).
type Method struct {
	Routing bool
	Remap   bool
}

// Full returns the complete system configuration.
func Full() Method { return Method{Routing: true, Remap: true} }

// Name identifies the configuration using the paper's ablation labels.
func (m Method) Name() string {
	switch {
	case m.Routing && m.Remap:
		return "Zeppelin"
	case m.Routing:
		return "Zeppelin w/ Routing & Attn Eng"
	case m.Remap:
		return "Zeppelin w/ Attn Eng & Remap"
	default:
		return "Zeppelin w/ Attn Eng"
	}
}

// SpeedAware marks Zeppelin as a method that re-plans against the
// degraded effective-speed cluster view: the partitioner weighs rank
// loads by measured speed and the remapping layer steers tokens toward
// fast ranks, so stragglers cost the harmonic-mean slowdown instead of
// the maximum. The campaign layer uses this to decide whose stale-plan
// projections should account for rank speeds (internal/campaign).
func (Method) SpeedAware() bool { return true }

// Plan partitions the batch hierarchically and prepares the remapping
// solution for the linear modules. Under a degraded cluster view
// (env.Health) both stages plan speed-aware; on a healthy cluster the
// behavior is bit-identical to the paper's homogeneous algorithms.
func (m Method) Plan(env *trainer.Env, batch []seq.Sequence) (trainer.Placement, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("zeppelin: empty batch")
	}
	var speeds []float64
	if env.Health.Degraded() {
		speeds = env.Health.Speeds(env.C.World())
	}
	part, err := partition.New(partition.Config{
		Cluster:        env.C,
		CapacityTokens: env.CapacityTokens,
		Speeds:         speeds,
	})
	if err != nil {
		return nil, err
	}
	res, err := part.Plan(batch)
	if err != nil {
		return nil, err
	}
	if err := res.Plan.Validate(batch); err != nil {
		return nil, fmt.Errorf("zeppelin: invalid plan: %w", err)
	}
	pl := &placement{
		m:      m,
		plan:   res.Plan,
		batch:  batch,
		engine: attention.New(env.F, routing.New(env.F, m.Routing), env.CM),
	}
	if m.Remap {
		bytesPerToken := env.CM.ActBytes(1)
		bIntra := bytesPerToken / env.C.IntraBandwidth
		bInter := bytesPerToken / env.C.NICBandwidth
		// Speed-weighted layout under degradation: slow ranks receive
		// proportionally fewer tokens so the linear modules finish
		// together; healthy clusters keep the perfectly balanced target.
		var target []int
		if speeds != nil {
			target = remap.WeightedTarget(res.Plan.TokensPerRank(), speeds)
		}
		rp, err := remap.SolveTarget(res.Plan.TokensPerRank(), target, env.C, bIntra, bInter)
		if err != nil {
			return nil, err
		}
		pl.remapPlan = rp
		pl.reverse = reversePlan(rp)
	}
	return pl, nil
}

// reversePlan inverts a remapping (the equal-cost inverse transform the
// paper applies after the linear modules).
func reversePlan(p *remap.Plan) *remap.Plan {
	rev := &remap.Plan{
		Target:        nil,
		MaxSenderCost: p.MaxSenderCost,
		InterTokens:   p.InterTokens,
	}
	for _, tr := range p.Transfers {
		rev.Transfers = append(rev.Transfers, remap.Transfer{From: tr.To, To: tr.From, Tokens: tr.Tokens})
	}
	return rev
}

type placement struct {
	m         Method
	plan      *seq.Plan
	batch     []seq.Sequence
	engine    *attention.Engine
	remapPlan *remap.Plan
	reverse   *remap.Plan
}

func (p *placement) EmitAttention(env *trainer.Env, backward bool, deps ...*sim.Task) *sim.Task {
	if backward {
		return p.engine.EmitBackward(p.plan, deps...)
	}
	return p.engine.EmitForward(p.plan, deps...)
}

func (p *placement) EmitRemapToLinear(env *trainer.Env, deps ...*sim.Task) *sim.Task {
	if p.remapPlan == nil {
		return env.E.Barrier("remap-noop", 0).After(deps...)
	}
	return remap.Emit(env.F, "remap-to-linear", p.remapPlan, env.CM.ActBytes(1), deps...)
}

func (p *placement) EmitRemapToAttention(env *trainer.Env, deps ...*sim.Task) *sim.Task {
	if p.reverse == nil {
		return env.E.Barrier("remap-noop", 0).After(deps...)
	}
	return remap.Emit(env.F, "remap-to-attn", p.reverse, env.CM.ActBytes(1), deps...)
}

// LinearEffectiveTokens: with remapping, every rank processes the balanced
// target count; the token mixing also averages MoE routing skew, so the
// batch-average weight applies. Without remapping, the attention layout's
// per-rank portions feed the linear modules directly, inheriting both the
// imbalance and each sequence's routing weight.
func (p *placement) LinearEffectiveTokens(env *trainer.Env) []float64 {
	world := env.C.World()
	if p.remapPlan != nil {
		out := make([]float64, world)
		w := 1.0
		if env.CM.MC.MoE {
			var tok, wTok float64
			for _, s := range p.batch {
				tok += float64(s.Len)
				wTok += trainer.MoEWeight(s.ID) * float64(s.Len)
			}
			if tok > 0 {
				w = wTok / tok
			}
		}
		for i, t := range p.remapPlan.Target {
			out[i] = w * float64(t)
		}
		return out
	}
	portions := make([]map[int]int, world)
	for r := range portions {
		portions[r] = make(map[int]int)
	}
	for r, ls := range p.plan.Local {
		for _, s := range ls {
			portions[r][s.ID] += s.Len
		}
	}
	for _, ring := range p.plan.Rings {
		share := ring.TokensPerRank()
		for i, r := range ring.Ranks {
			portions[r][ring.Seq.ID] += share[i]
		}
	}
	return trainer.EffectiveTokens(env.CM.MC, world, portions)
}

func (p *placement) MicroBatches() int { return 1 }

// HostOverhead charges the hierarchical partitioning pass and, when
// enabled, the remapping solve — the "Sequence Partition" row of Table 3
// (3–12 ms per iteration, polynomial in batch size and incurred once).
func (p *placement) HostOverhead() float64 {
	h := 3e-3 + 2e-5*float64(len(p.batch))
	if p.remapPlan != nil {
		h += 0.5e-3
	}
	return h
}

// Plan exposes the underlying partition plan for inspection tools.
func (p *placement) Plan() *seq.Plan { return p.plan }

// RemapPlan exposes the remapping solution (nil when disabled).
func (p *placement) RemapPlan() *remap.Plan { return p.remapPlan }
