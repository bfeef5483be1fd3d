// Package baselines implements the three state-of-the-art comparison
// systems of §5: Transformer Engine CP (even sequence splitting with a
// balanced global ring), LLaMA CP (all-gather of KV before local
// attention, as in LLaMA 3 / WLB-LLM training), and Hybrid DP (ByteScale-
// style FLOP-balanced assignment of short sequences to DP ranks with
// ring CP for long sequences). All three implement trainer.Method over
// the same cost model and fabric as Zeppelin, and their rings and
// all-to-alls are the same emitters (attention.Ring,
// collective.AllToAll), so comparisons isolate the scheduling policies.
package baselines

import (
	"fmt"
	"math"

	"zeppelin/internal/attention"
	"zeppelin/internal/collective"
	"zeppelin/internal/costmodel"
	"zeppelin/internal/model"
	"zeppelin/internal/routing"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
	"zeppelin/internal/trainer"
)

// hostOverheadBase is the per-iteration host-side cost of trivial batch
// reorganization (chunking, bookkeeping) shared by the baselines.
const hostOverheadBase = 0.5e-3

// stage labels the tasks of one attention pass of a baseline: compute
// kernels, KV traffic (ring transfers or the all-gather), and the pass's
// barriers.
type stage struct{ comp, kv, done string }

var (
	tecpFwd  = stage{comp: "attn-fwd/tecp/comp", kv: "attn-fwd/tecp/kv", done: "attn-fwd/tecp/done"}
	tecpBwd  = stage{comp: "attn-bwd/tecp/comp", kv: "attn-bwd/tecp/kv", done: "attn-bwd/tecp/done"}
	llamaFwd = stage{comp: "attn-fwd/llama/comp", kv: "attn-fwd/llama/allgather", done: "attn-fwd/llama/done"}
	llamaBwd = stage{comp: "attn-bwd/llama/comp", kv: "attn-bwd/llama/allgather", done: "attn-bwd/llama/done"}
)

// hybridStage labels a Hybrid DP attention pass: whole sequences on one
// rank, ring (CP group) compute and KV transfers, and the wave barriers.
type hybridStage struct{ dp, cpComp, cpKV, wave string }

var (
	hybridFwd = hybridStage{dp: "attn-fwd/hybrid/dp", cpComp: "attn-fwd/hybrid/cp/comp",
		cpKV: "attn-fwd/hybrid/cp/kv", wave: "attn-fwd/hybrid/wave"}
	hybridBwd = hybridStage{dp: "attn-bwd/hybrid/dp", cpComp: "attn-bwd/hybrid/cp/comp",
		cpKV: "attn-bwd/hybrid/cp/kv", wave: "attn-bwd/hybrid/wave"}
)

// repeated returns n copies of v: a per-rank value every rank shares.
func repeated(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// batchStats sums tokens, causal pairs, and MoE-weighted tokens.
func batchStats(batch []seq.Sequence) (tokens int, pairs, wTokens float64) {
	for _, s := range batch {
		tokens += s.Len
		pairs += model.CausalPairs(float64(s.Len))
		wTokens += trainer.MoEWeight(s.ID) * float64(s.Len)
	}
	return tokens, pairs, wTokens
}

// evenEffectiveTokens is the per-rank effective linear token count when
// every sequence is sharded evenly across all ranks: sharding averages
// the MoE routing skew away.
func evenEffectiveTokens(env *trainer.Env, mc model.Config, tokens int, wTokens float64) []float64 {
	w := env.C.World()
	per := float64(tokens) / float64(w)
	if mc.MoE {
		per = wTokens / float64(w)
	}
	return repeated(w, per)
}

// ---------------------------------------------------------------------
// Transformer Engine CP
// ---------------------------------------------------------------------

// TECP evenly splits the concatenated batch across all ranks and runs
// balanced ring attention over a single global ring. Routed=true attaches
// Zeppelin's communication routing layer to the same schedule — the
// "w/ Routing" configuration of the Fig. 11 ablation.
type TECP struct {
	Routed bool
}

// Name identifies the method in reports.
func (t TECP) Name() string {
	if t.Routed {
		return "TE CP + Routing"
	}
	return "TE CP"
}

// ShapeIndependent marks the placement as batch-shape independent:
// every sequence splits evenly across all ranks whatever arrives, so a
// streaming campaign never needs to re-plan TE CP and it never pays a
// stale-plan penalty (internal/campaign consumes this).
func (TECP) ShapeIndependent() bool { return true }

// Plan builds the even-split placement.
func (t TECP) Plan(env *trainer.Env, batch []seq.Sequence) (trainer.Placement, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("tecp: empty batch")
	}
	tokens, pairs, wTokens := batchStats(batch)
	return &tecpPlacement{
		router: routing.New(env.F, t.Routed),
		mc:     env.CM.MC,
		tokens: tokens, pairs: pairs, wTokens: wTokens,
	}, nil
}

type tecpPlacement struct {
	trainer.NoRemap
	router         *routing.Router
	mc             model.Config
	tokens         int
	pairs, wTokens float64
}

func (p *tecpPlacement) EmitAttention(env *trainer.Env, backward bool, deps ...*sim.Task) *sim.Task {
	computeMul, commMul, st := 1.0, 1.0, tecpFwd
	if backward {
		computeMul, commMul, st = 2.0, 2.0, tecpBwd
	}
	// One balanced ring over all ranks for the concatenated batch: G =
	// world rounds, each rank computing 1/G² of the triangle per round. A
	// one-rank ring computes the whole triangle in its one round and pays
	// no round overhead.
	g := env.C.World()
	ranks := make([]int, g)
	for i := range ranks {
		ranks[i] = i
	}
	overhead := costmodel.RingRoundOverhead
	if g == 1 {
		overhead = 0
	}
	perRound := repeated(g, env.CM.AttnTimePairs(p.pairs/float64(g*g))*computeMul+overhead)
	blockBytes := env.CM.KVBytes(float64(p.tokens)/float64(g)) * commMul
	lastComp := make([]*sim.Task, g)
	attention.Ring(p.router, st.kv, st.comp, ranks, perRound, blockBytes, deps, lastComp)
	done := env.E.Barrier(st.done, 0)
	done.After(deps...)
	for _, t := range lastComp {
		done.After(t)
	}
	return done
}

func (p *tecpPlacement) LinearEffectiveTokens(env *trainer.Env) []float64 {
	return evenEffectiveTokens(env, p.mc, p.tokens, p.wTokens)
}

func (p *tecpPlacement) MicroBatches() int     { return 1 }
func (p *tecpPlacement) HostOverhead() float64 { return hostOverheadBase }

// ---------------------------------------------------------------------
// LLaMA CP
// ---------------------------------------------------------------------

// LLaMACP replicates the context-parallel approach of LLaMA 3 training:
// KV activations are all-gathered across the group before attention, so
// communication sits on the critical path but uses optimized multi-NIC
// collectives; compute is balanced by causal chunk reordering.
type LLaMACP struct{}

// Name identifies the method in reports.
func (LLaMACP) Name() string { return "LLaMA CP" }

// ShapeIndependent marks the placement as batch-shape independent, like
// TE CP's: the all-gather group covers all ranks for any batch.
func (LLaMACP) ShapeIndependent() bool { return true }

// Plan builds the all-gather placement.
func (LLaMACP) Plan(env *trainer.Env, batch []seq.Sequence) (trainer.Placement, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("llamacp: empty batch")
	}
	tokens, pairs, wTokens := batchStats(batch)
	return &llamaPlacement{mc: env.CM.MC, tokens: tokens, pairs: pairs, wTokens: wTokens}, nil
}

type llamaPlacement struct {
	trainer.NoRemap
	mc             model.Config
	tokens         int
	pairs, wTokens float64
}

// emitAllGather models an optimized NCCL all-gather of the full KV set
// via the collective substrate. The returned barrier gates attention
// compute (no overlap — this is the critical-path cost the paper's
// motivation cites).
func (p *llamaPlacement) emitAllGather(env *trainer.Env, label string, volMul float64, deps []*sim.Task) *sim.Task {
	world := env.C.World()
	perRank := env.CM.KVBytes(float64(p.tokens)) * volMul / float64(world)
	return collective.AllGather(env.F, label, perRank, deps...)
}

func (p *llamaPlacement) EmitAttention(env *trainer.Env, backward bool, deps ...*sim.Task) *sim.Task {
	computeMul, volMul, st := 1.0, 1.0, llamaFwd
	if backward {
		// Backward re-gathers KV and reduce-scatters dKV: 2× volume.
		computeMul, volMul, st = 2.0, 2.0, llamaBwd
	}
	gathered := p.emitAllGather(env, st.kv, volMul, deps)
	world := env.C.World()
	perRank := env.CM.AttnTimePairs(p.pairs/float64(world)) * computeMul
	done := env.E.Barrier(st.done, 0)
	done.After(gathered)
	for rank := 0; rank < world; rank++ {
		t := env.F.ComputeTask(st.comp, rank, perRank)
		t.After(gathered)
		done.After(t)
	}
	return done
}

func (p *llamaPlacement) LinearEffectiveTokens(env *trainer.Env) []float64 {
	return evenEffectiveTokens(env, p.mc, p.tokens, p.wTokens)
}

func (p *llamaPlacement) MicroBatches() int     { return 1 }
func (p *llamaPlacement) HostOverhead() float64 { return hostOverheadBase }

// ---------------------------------------------------------------------
// Hybrid DP
// ---------------------------------------------------------------------

// HybridDP models ByteScale/FlexSP-style FLOP-balanced hybrid data
// parallelism: every sequence is assigned a context-parallel group whose
// size is proportional to the sequence's estimated FLOPs (rounded to a
// power of two and placed on an aligned rank block — the coarse-grained,
// model-level granularity the paper critiques). Short sequences get
// groups of one (plain DP, leaving their NICs idle), long sequences ring
// over large groups with direct, unrouted transfers. Ranks process their
// assigned micro-batches serially.
type HybridDP struct{}

// Name identifies the method in reports.
func (HybridDP) Name() string { return "Hybrid DP" }

// assignment is one sequence bound to an aligned block of ranks.
type assignment struct {
	s     seq.Sequence
	ranks []int // len is a power of two; 1 = plain DP
}

// Plan sizes and places CP groups to balance estimated FLOPs. The
// estimate deliberately ignores MoE routing weights: actual expert loads
// are unknown before routing (§5.1), which is exactly why FLOP-estimated
// balancing degrades on MoE models.
func (HybridDP) Plan(env *trainer.Env, batch []seq.Sequence) (trainer.Placement, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("hybriddp: empty batch")
	}
	world := env.C.World()
	sorted := append([]seq.Sequence(nil), batch...)
	seq.SortByLenDesc(sorted)

	linPerTok := env.CM.MC.LinearFlopsPerToken()
	cost := func(s seq.Sequence) float64 {
		return env.CM.MC.AttnFlopsForPairs(model.CausalPairs(float64(s.Len))) +
			linPerTok*float64(s.Len)
	}
	var total float64
	for _, s := range sorted {
		total += cost(s)
	}
	target := total / float64(world)

	load := make([]float64, world)
	var assigns []assignment
	maxPerRank := make([]int, world) // micro-batch counts
	for _, s := range sorted {
		// Group size: enough ranks that the sequence's per-rank share is
		// near the target, rounded up to a power of two, and capped both
		// by the world and by per-rank memory. The doubling stops while a
		// full aligned block still fits — on non-power-of-two worlds
		// (e.g. 3 nodes of 8) the group caps at the largest power of two
		// that fits instead of overrunning the rank range.
		g := 1
		for g*2 <= world && (cost(s)/float64(g) > target ||
			s.Len/g > env.MemoryTokens) {
			g *= 2
		}
		// Choose the least-loaded aligned block of g ranks.
		bestBlock, bestLoad := 0, math.Inf(1)
		for b := 0; b+g <= world; b += g {
			var bl float64
			for r := b; r < b+g; r++ {
				if load[r] > bl {
					bl = load[r]
				}
			}
			if bl < bestLoad {
				bestLoad, bestBlock = bl, b
			}
		}
		ranks := make([]int, g)
		for i := range ranks {
			ranks[i] = bestBlock + i
			load[bestBlock+i] += cost(s) / float64(g)
			maxPerRank[bestBlock+i]++
		}
		assigns = append(assigns, assignment{s: s, ranks: ranks})
	}
	mb := 1
	for _, c := range maxPerRank {
		if c > mb {
			mb = c
		}
	}
	return &hybridPlacement{
		mc:      env.CM.MC,
		assigns: assigns,
		mb:      mb,
		router:  routing.New(env.F, false),
	}, nil
}

type hybridPlacement struct {
	trainer.NoRemap
	mc      model.Config
	assigns []assignment
	mb      int
	router  *routing.Router
}

// emitGroupRing runs balanced ring attention for one sequence over its
// assigned block (direct sends — hybrid methods keep the static GPU–NIC
// affinity the routing layer would break). A group of one rank runs the
// sequence as plain data-parallel attention.
func (p *hybridPlacement) emitGroupRing(env *trainer.Env, st hybridStage, a assignment,
	computeMul, commMul float64, lastComp []*sim.Task, deps []*sim.Task) {
	g := len(a.ranks)
	if g == 1 {
		rank := a.ranks[0]
		t := env.F.ComputeTask(st.dp, rank, env.CM.CausalAttnTime(float64(a.s.Len))*computeMul)
		t.After(deps...)
		t.After(lastComp[rank])
		lastComp[rank] = t
		return
	}
	pairs := model.CausalPairs(float64(a.s.Len))
	perRound := repeated(g, env.CM.AttnTimePairs(pairs/float64(g*g))*computeMul+
		costmodel.RingRoundOverhead)
	blockBytes := env.CM.KVBytes(float64(a.s.Len)/float64(g)) * commMul
	attention.Ring(p.router, st.cpKV, st.cpComp, a.ranks, perRound, blockBytes, deps, lastComp)
}

func (p *hybridPlacement) EmitAttention(env *trainer.Env, backward bool, deps ...*sim.Task) *sim.Task {
	computeMul, commMul, st := 1.0, 1.0, hybridFwd
	if backward {
		computeMul, commMul, st = 2.0, 2.0, hybridBwd
	}
	world := env.C.World()
	// Micro-batches execute as lock-stepped waves (gradient-accumulation
	// steps): a rank's k-th micro-batch starts only after every rank has
	// finished its (k−1)-th. Imbalance inside a wave is lost time — the
	// compute-intensity penalty of Fig. 2c.
	waveOf := make([]int, world)
	waves := make(map[int][]assignment)
	maxWave := 0
	for _, a := range p.assigns {
		w := 0
		for _, r := range a.ranks {
			if waveOf[r] > w {
				w = waveOf[r]
			}
		}
		for _, r := range a.ranks {
			waveOf[r] = w + 1
		}
		waves[w] = append(waves[w], a)
		if w > maxWave {
			maxWave = w
		}
	}
	prev := env.E.Barrier(st.wave, 0)
	prev.After(deps...)
	for w := 0; w <= maxWave; w++ {
		lastComp := make([]*sim.Task, world)
		waveDeps := []*sim.Task{prev}
		for _, a := range waves[w] {
			p.emitGroupRing(env, st, a, computeMul, commMul, lastComp, waveDeps)
		}
		bar := env.E.Barrier(st.wave, 0)
		bar.After(prev)
		for _, t := range lastComp {
			bar.After(t)
		}
		prev = bar
	}
	return prev
}

func (p *hybridPlacement) LinearEffectiveTokens(env *trainer.Env) []float64 {
	out := make([]float64, env.C.World())
	for _, a := range p.assigns {
		w := trainer.LinearWeight(p.mc, a.s.ID)
		for i, tok := range seq.SplitEven(a.s.Len, len(a.ranks)) {
			out[a.ranks[i]] += w * float64(tok)
		}
	}
	return out
}

func (p *hybridPlacement) MicroBatches() int { return p.mb }

// HostOverhead includes the FLOP-balancing pass over the batch.
func (p *hybridPlacement) HostOverhead() float64 {
	return hostOverheadBase + 2e-6*float64(len(p.assigns))
}
