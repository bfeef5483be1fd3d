// Package attention implements Zeppelin's attention engine (§3.2): it
// turns a partition plan into a discrete-event task graph that executes
// ring attention for inter-node and intra-node sequence groups and plain
// variable-length attention for local sequences.
//
// Scheduling follows the paper's three-queue ordering — inter-node rings
// first (their communication subsumes intra-node groups, so finishing
// them unblocks everything else), then intra-node rings, then local
// sequences last. Within a ring, each round overlaps the computation on
// the current KV block with the transfer of the next one, and the causal
// mask's triangular load is balanced with the 2G-chunk scheme (rank i owns
// chunks i and 2G−1−i), which equalizes every rank's pair count.
package attention

import (
	"zeppelin/internal/cluster"
	"zeppelin/internal/costmodel"
	"zeppelin/internal/model"
	"zeppelin/internal/routing"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
)

// Engine emits attention execution graphs onto a simulator.
type Engine struct {
	F  *cluster.Fabric
	R  *routing.Router
	CM *costmodel.Model
}

// New assembles an engine; the router decides whether cross-node ring
// traffic is three-step routed or sent directly.
func New(f *cluster.Fabric, r *routing.Router, cm *costmodel.Model) *Engine {
	return &Engine{F: f, R: r, CM: cm}
}

// pass direction controls compute/comm scaling, queue order, and the
// stage labels of the tasks it emits.
type pass struct {
	computeMul  float64
	commMul     float64
	reverseTier bool // backward executes local -> intra -> inter
	// Stage labels: local-sequence attention, ring KV transfers, ring
	// compute rounds, and the pass's completion barrier.
	local, kv, comp, done string
}

var (
	fwd = pass{computeMul: 1, commMul: 1,
		local: "attn-fwd/local", kv: "attn-fwd/ring/kv", comp: "attn-fwd/ring/comp", done: "attn-fwd/done"}
	bwd = pass{computeMul: costmodel.BwdComputeFactor, commMul: costmodel.BwdCommFactor, reverseTier: true,
		local: "attn-bwd/local", kv: "attn-bwd/ring/kv", comp: "attn-bwd/ring/comp", done: "attn-bwd/done"}
)

// EmitForward appends the forward attention graph for one layer and
// returns a barrier that completes when every rank has finished. lastComp
// tracks per-rank compute chaining across calls; pass nil for a fresh
// layer boundary.
func (en *Engine) EmitForward(plan *seq.Plan, deps ...*sim.Task) *sim.Task {
	return en.emit(plan, fwd, deps)
}

// EmitBackward appends the backward attention graph (≈2× compute, 2× KV
// traffic for dKV circulation, tiers in reverse order per Fig. 12c).
func (en *Engine) EmitBackward(plan *seq.Plan, deps ...*sim.Task) *sim.Task {
	return en.emit(plan, bwd, deps)
}

func (en *Engine) emit(plan *seq.Plan, p pass, deps []*sim.Task) *sim.Task {
	world := plan.World
	lastComp := make([]*sim.Task, world)

	emitLocal := func() {
		for rank := 0; rank < world; rank++ {
			for _, s := range plan.Local[rank] {
				d := en.CM.CausalAttnTime(float64(s.Len)) * p.computeMul
				t := en.F.ComputeTask(p.local, rank, d)
				t.After(deps...)
				t.After(lastComp[rank])
				lastComp[rank] = t
			}
		}
	}
	// emitRings emits the inter-node rings, or every other ring, in plan
	// order.
	emitRings := func(inter bool) {
		for _, ring := range plan.Rings {
			if (ring.Zone == seq.ZoneInter) == inter {
				en.emitRing(ring, p, deps, lastComp)
			}
		}
	}

	if p.reverseTier {
		emitLocal()
		emitRings(false)
		emitRings(true)
	} else {
		emitRings(true)
		emitRings(false)
		emitLocal()
	}

	done := en.F.E.Barrier(p.done, 0)
	for rank := 0; rank < world; rank++ {
		done.After(lastComp[rank])
	}
	done.After(deps...) // cover the all-local-empty rank case
	return done
}

// emitRing schedules one sequence group's ring. 2G-chunk causal
// balancing gives every rank an equal share of the triangle each round —
// or its weighted share when the ring carries speed-aware weights (each
// rank owns PairShares[i] pairs total, spread over the G rounds; KV
// circulation stays even). Each round also pays the fixed
// chunked-execution overhead (sync + softmax rescale + launch).
func (en *Engine) emitRing(ring seq.Ring, p pass, deps []*sim.Task, lastComp []*sim.Task) {
	g := ring.G()
	s := float64(ring.Seq.Len)
	perRound := make([]float64, g)
	if ring.Weights == nil {
		even := en.CM.AttnTimePairs(model.CausalPairs(s)/float64(g*g))*p.computeMul +
			costmodel.RingRoundOverhead
		for i := range perRound {
			perRound[i] = even
		}
	} else {
		for i, share := range ring.PairShares() {
			perRound[i] = en.CM.AttnTimePairs(share/float64(g))*p.computeMul +
				costmodel.RingRoundOverhead
		}
	}
	blockBytes := en.CM.KVBytes(s/float64(g)) * p.commMul
	Ring(en.R, p.kv, p.comp, ring.Ranks, perRound, blockBytes, deps, lastComp)
}

// Ring emits G = len(ranks) rounds of ring attention: round t on rank
// ranks[i] computes for perRound[i] seconds on the KV block received in
// round t−1, while forwarding the block it already holds, blockBytes
// long, to the next rank through r — the overlap structure of Fig. 6.
// Transfers carry kvLabel and compute kernels compLabel. Every task
// waits for deps, and lastComp, indexed by global rank, chains each
// rank's compute stream across calls. Zeppelin's rings and every
// baseline's rings run this one schedule.
func Ring(r *routing.Router, kvLabel, compLabel string, ranks []int, perRound []float64, blockBytes float64,
	deps, lastComp []*sim.Task) {
	g := len(ranks)
	// have[i] is the task whose completion delivers the KV block rank i
	// consumes in the current round; next collects the blocks forwarded
	// for the round after (every round but the last fills all of it), and
	// xDeps one transfer's dependencies. The buffers are reused across
	// rounds and transfers.
	have, next := make([]*sim.Task, g), make([]*sim.Task, g)
	xDeps := append(make([]*sim.Task, 0, len(deps)+1), deps...)
	for t := 0; t < g; t++ {
		for i, rank := range ranks {
			if t < g-1 {
				// Forward the currently held block while computing on it.
				dst := ranks[(i+1)%g]
				xDeps = xDeps[:len(deps)]
				if have[i] != nil {
					xDeps = append(xDeps, have[i])
				}
				next[(i+1)%g] = r.Transfer(kvLabel, rank, dst, blockBytes, xDeps...)
			}
			comp := r.F.ComputeTask(compLabel, rank, perRound[i])
			comp.After(deps...)
			comp.After(have[i])        // wait for this round's KV block
			comp.After(lastComp[rank]) // keep the compute stream ordered
			lastComp[rank] = comp
		}
		have, next = next, have
	}
}
