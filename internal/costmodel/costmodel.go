// Package costmodel converts model configurations and cluster specs into
// execution-time estimates: attention kernels (quadratic in length),
// linear-module kernels (linear in tokens), and KV/activation transfer
// times over intra- and inter-node links. It also derives the three-zone
// classification of Fig. 5 — the sequence lengths at which attention
// computation begins to hide intra-node and inter-node communication.
package costmodel

import (
	"fmt"
	"math"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
)

// Default kernel efficiency factors (fraction of peak FLOPs achieved).
// Attention kernels (FlashAttention-style) reach lower utilization than
// large GEMMs; values chosen to land the absolute costs near Fig. 5/12.
const (
	DefaultAttnEff   = 0.45
	DefaultLinearEff = 0.55
)

// Backward-pass scaling: backward recomputes ~2× the forward FLOPs
// (dQ,dK,dV) and ring attention additionally circulates dKV, doubling the
// communication volume. Matches the ~2× durations in Fig. 12.
const (
	BwdComputeFactor = 2.0
	BwdCommFactor    = 2.0
)

// Model is a calibrated cost model for one (architecture, device, TP) tuple.
type Model struct {
	MC   model.Config
	Spec cluster.Spec
	// TP is the tensor-parallel degree; heads and FFN shards divide
	// per-rank compute and KV volume by TP.
	TP        int
	AttnEff   float64
	LinearEff float64
}

// New builds a cost model with default efficiencies.
func New(mc model.Config, spec cluster.Spec, tp int) (*Model, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if tp <= 0 {
		return nil, fmt.Errorf("costmodel: TP must be positive, got %d", tp)
	}
	if mc.Heads%tp != 0 {
		return nil, fmt.Errorf("costmodel: heads %d not divisible by TP %d", mc.Heads, tp)
	}
	return &Model{MC: mc, Spec: spec, TP: tp, AttnEff: DefaultAttnEff, LinearEff: DefaultLinearEff}, nil
}

// MustNew is New for known-valid configurations.
func MustNew(mc model.Config, spec cluster.Spec, tp int) *Model {
	m, err := New(mc, spec, tp)
	if err != nil {
		panic(err)
	}
	return m
}

// RingRoundOverhead is the fixed per-round cost of chunked ring-attention
// execution beyond the kernel FLOPs: stream synchronization between
// rounds, partial-softmax rescaling/accumulation, and the extra launch.
// It is why heavily fragmented execution shows stalls ("bubbles") in the
// paper's Fig. 12b timeline, and it tempers the gains of fine-grained
// splitting for short sequences.
const RingRoundOverhead = 200e-6

// AttnTimePairs is the per-rank time to compute attention over a number of
// query–key pairs (one layer, forward).
func (m *Model) AttnTimePairs(pairs float64) float64 {
	if pairs <= 0 {
		return 0
	}
	return m.MC.AttnFlopsForPairs(pairs) / float64(m.TP) / (m.Spec.GPUPeakFlops * m.AttnEff)
}

// CausalAttnTime is the forward attention time of a full causal sequence
// of length s on one rank.
func (m *Model) CausalAttnTime(s float64) float64 {
	return m.AttnTimePairs(model.CausalPairs(s))
}

// LinearTime is the forward time of the token-wise modules for a token
// count on one rank (one layer).
func (m *Model) LinearTime(tokens float64) float64 {
	if tokens <= 0 {
		return 0
	}
	return tokens * m.MC.LinearFlopsPerToken() / float64(m.TP) / (m.Spec.GPUPeakFlops * m.LinearEff)
}

// KVBytes is the per-rank KV activation volume for a token count (one
// layer); TP shards heads, dividing the per-rank volume.
func (m *Model) KVBytes(tokens float64) float64 {
	return tokens * m.MC.KVBytesPerToken() / float64(m.TP)
}

// ActBytes is the per-rank hidden-state volume for a token count.
func (m *Model) ActBytes(tokens float64) float64 {
	return tokens * m.MC.ActivationBytesPerToken() / float64(m.TP)
}

// IntraTime is the time to move bytes over one NVSwitch port.
func (m *Model) IntraTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return m.Spec.IntraLatency + bytes/m.Spec.IntraBandwidth
}

// InterTime is the time to move bytes over one NIC (one direction).
func (m *Model) InterTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return m.Spec.InterLatency + bytes/m.Spec.NICBandwidth
}

// Zones (Fig. 5). The boundary between the local and intra-node zones is
// the length at which a sequence's attention computation matches the cost
// of moving its KV over NVSwitch; below it, splitting the sequence cannot
// hide even intra-node traffic. The intra/inter boundary is the analogous
// crossing against a single NIC. Both are found by bisection on the
// monotone difference function.

// LocalIntraBoundary returns the sequence length (tokens) where causal
// attention compute time equals intra-node KV send-receive time.
func (m *Model) LocalIntraBoundary() float64 {
	return m.crossing(func(s float64) float64 {
		return m.CausalAttnTime(s) - m.IntraTime(m.KVBytes(s))
	})
}

// IntraInterBoundary returns the sequence length where causal attention
// compute time equals inter-node (single NIC) KV send-receive time.
func (m *Model) IntraInterBoundary() float64 {
	return m.crossing(func(s float64) float64 {
		return m.CausalAttnTime(s) - m.InterTime(m.KVBytes(s))
	})
}

func (m *Model) crossing(f func(float64) float64) float64 {
	lo, hi := 1.0, 1.0
	for f(hi) < 0 && hi < 1e9 {
		hi *= 2
	}
	if hi >= 1e9 {
		return math.Inf(1)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Packing redundancy (Fig. 3a). When sequences are packed into a fixed
// chunk and attention runs without a per-sequence block mask, the kernel
// computes the full causal triangle of the packed chunk; the useful work
// is only each sequence's own triangle.

// PackedPairs returns (useful, redundant) causal pairs when the given
// sequence lengths are packed into one chunk.
func PackedPairs(lengths []int) (useful, redundant float64) {
	var total float64
	for _, l := range lengths {
		useful += model.CausalPairs(float64(l))
		total += float64(l)
	}
	redundant = model.CausalPairs(total) - useful
	return useful, redundant
}
