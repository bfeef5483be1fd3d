package baselines

import (
	"fmt"

	"zeppelin/internal/collective"
	"zeppelin/internal/model"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
	"zeppelin/internal/trainer"
)

// Packing models the input-balanced packing strategy of Fig. 2a (the
// Qwen/DeepSeek recipe): sequences are packed into equal-sized per-rank
// chunks and attention runs with Ulysses-style sequence parallelism —
// all-to-alls exchange sequence- for head-partitioning around the
// attention kernel. Linear modules see perfectly balanced tokens, but the
// attention kernel computes each packed chunk's full causal triangle, so
// cross-sequence pairs are redundant work (the Fig. 3a inefficiency),
// and the all-to-all volume scales with token count regardless of need.
type Packing struct{}

// Name identifies the method in reports.
func (Packing) Name() string { return "Packing+Ulysses" }

// Plan packs whole sequences into bins via first-fit-decreasing. Bin
// capacity is at least the longest sequence (packing never splits a
// sequence's attention — splitting would silently truncate context, which
// is a quality change, not a scheduling one). Each bin's attention
// computes the full packed triangle, so cross-sequence pairs are wasted.
func (Packing) Plan(env *trainer.Env, batch []seq.Sequence) (trainer.Placement, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("packing: empty batch")
	}
	world := env.C.World()
	tokens, _, wTokens := batchStats(batch)
	capacity := (tokens + world - 1) / world
	sorted := append([]seq.Sequence(nil), batch...)
	seq.SortByLenDesc(sorted)
	if sorted[0].Len > capacity {
		capacity = sorted[0].Len
	}
	var bins []int // bin fill levels
	for _, s := range sorted {
		placed := false
		for i := range bins {
			if bins[i]+s.Len <= capacity {
				bins[i] += s.Len
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, s.Len)
		}
	}
	// Ulysses computes every bin's full triangle across the head-sharded
	// group; the per-rank pair load is the total over bins divided by the
	// group size.
	var packedPairs float64
	for _, fill := range bins {
		packedPairs += model.CausalPairs(float64(fill))
	}
	mb := (len(bins) + world - 1) / world
	if mb < 1 {
		mb = 1
	}
	return &packingPlacement{
		mc:          env.CM.MC,
		tokens:      tokens,
		wTokens:     wTokens,
		packedPairs: packedPairs,
		mb:          mb,
	}, nil
}

type packingPlacement struct {
	trainer.NoRemap
	mc          model.Config
	tokens      int
	wTokens     float64
	packedPairs float64
	mb          int
}

// ulyssesAllToAll exchanges each rank's activation shard with the
// group (sequence-partition ↔ head-partition switch). Volume per rank is
// width × tokens/world × (world−1)/world, so a one-rank group sends
// nothing.
func (p *packingPlacement) ulyssesAllToAll(env *trainer.Env, label string, widths float64, mul float64, deps ...*sim.Task) *sim.Task {
	world := env.C.World()
	perRank := widths * env.CM.ActBytes(float64(p.tokens)/float64(world)) *
		float64(world-1) / float64(world) * mul
	return collective.AllToAll(env.F, label, repeated(world, perRank), deps...)
}

// packingStage labels a packed attention pass: the Ulysses all-to-alls
// in and out, and the attention kernels with their barrier.
type packingStage struct{ a2aIn, comp, a2aOut string }

var (
	packingFwd = packingStage{"attn-fwd/packing/a2a-in", "attn-fwd/packing/comp", "attn-fwd/packing/a2a-out"}
	packingBwd = packingStage{"attn-bwd/packing/a2a-in", "attn-bwd/packing/comp", "attn-bwd/packing/a2a-out"}
)

func (p *packingPlacement) EmitAttention(env *trainer.Env, backward bool, deps ...*sim.Task) *sim.Task {
	computeMul, st := 1.0, packingFwd
	if backward {
		computeMul, st = 2.0, packingBwd
	}
	world := env.C.World()
	// All-to-all in: QKV widths (≈3 hidden-sized tensors).
	in := p.ulyssesAllToAll(env, st.a2aIn, 3, computeMul, deps...)
	perRank := env.CM.AttnTimePairs(p.packedPairs/float64(world)) * computeMul
	compDone := env.E.Barrier(st.comp, 0)
	compDone.After(in)
	for rank := 0; rank < world; rank++ {
		t := env.F.ComputeTask(st.comp, rank, perRank)
		t.After(in)
		compDone.After(t)
	}
	// All-to-all out: the attention output (1 hidden-sized tensor).
	return p.ulyssesAllToAll(env, st.a2aOut, 1, computeMul, compDone)
}

func (p *packingPlacement) LinearEffectiveTokens(env *trainer.Env) []float64 {
	return evenEffectiveTokens(env, p.mc, p.tokens, p.wTokens)
}

func (p *packingPlacement) MicroBatches() int     { return p.mb }
func (p *packingPlacement) HostOverhead() float64 { return hostOverheadBase }
