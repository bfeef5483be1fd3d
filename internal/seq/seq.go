// Package seq defines the sequence, shard, and placement-plan types shared
// by the sequence partitioner, the attention engine, and the baselines.
package seq

import (
	"fmt"
	"slices"
	"sort"

	"zeppelin/internal/model"
)

// Zone classifies where a sequence executes (§3.1, Fig. 5).
type Zone uint8

// The three zones: local (no communication), intra-node (NVSwitch ring),
// inter-node (cross-node ring).
const (
	ZoneLocal Zone = iota
	ZoneIntra
	ZoneInter
)

// String names a zone as in the paper's figures.
func (z Zone) String() string {
	switch z {
	case ZoneLocal:
		return "local"
	case ZoneIntra:
		return "intra-node"
	case ZoneInter:
		return "inter-node"
	default:
		return fmt.Sprintf("zone(%d)", uint8(z))
	}
}

// Sequence is one variable-length training sample.
type Sequence struct {
	ID  int
	Len int // tokens
}

// Ring is one distributed-attention group executing a single sequence
// over an ordered set of ranks with the balanced 2G-chunk causal split.
type Ring struct {
	Seq   Sequence
	Zone  Zone
	Ranks []int // ring order; len(Ranks) = G ≥ 2
	// Weights, when non-nil, are relative per-rank query-chunk shares
	// (len = G, positive, any scale): rank i owns Weights[i]/Σ of the
	// sequence's tokens and causal pairs instead of the even 1/G. The
	// speed-aware partitioner sets them proportional to rank speeds on a
	// degraded cluster so a ring's lock-stepped rounds are not paced by
	// the straggler; KV circulation stays even. Nil means the paper's
	// balanced 2G-chunk split.
	Weights []float64
}

// G returns the ring group size.
func (r Ring) G() int { return len(r.Ranks) }

// TokensPerRank returns each rank's token share under the 2G-chunk causal
// balancing scheme (rank i holds chunks i and 2G−1−i, i.e. ~Len/G tokens),
// or the weighted split when Weights are set. Remainder tokens go to the
// earliest ranks so totals are conserved.
func (r Ring) TokensPerRank() []int {
	return r.TokensPerRankInto(nil)
}

// TokensPerRankInto is TokensPerRank writing into dst when it has
// sufficient capacity, so planner hot loops can reuse one scratch buffer
// across rings instead of allocating a share vector per call.
func (r Ring) TokensPerRankInto(dst []int) []int {
	if r.Weights == nil {
		return SplitEvenInto(dst, r.Seq.Len, r.G())
	}
	return SplitWeightedInto(dst, r.Seq.Len, r.Weights)
}

// PairsPerRank returns each rank's causal-pair share. The 2G-chunk scheme
// balances pairs exactly across ranks in the continuous limit; we model
// the share as total pairs / G. Weighted rings spread pairs by weight;
// callers needing per-rank resolution use PairShares.
func (r Ring) PairsPerRank() float64 {
	return model.CausalPairs(float64(r.Seq.Len)) / float64(r.G())
}

// PairShares returns every rank's causal-pair share, honoring Weights.
// The unweighted path reproduces PairsPerRank's arithmetic exactly.
func (r Ring) PairShares() []float64 {
	pairs := model.CausalPairs(float64(r.Seq.Len))
	out := make([]float64, r.G())
	var sum float64
	for _, w := range r.Weights {
		if w > 0 {
			sum += w
		}
	}
	if r.Weights == nil || sum <= 0 {
		per := pairs / float64(r.G())
		for i := range out {
			out[i] = per
		}
		return out
	}
	for i := range out {
		w := r.Weights[i]
		if w < 0 {
			w = 0
		}
		out[i] = pairs * w / sum
	}
	return out
}

// Plan is a full placement of a batch across a world of ranks: whole
// sequences assigned locally plus ring groups for split sequences.
type Plan struct {
	World int
	// Local[rank] lists sequences executed entirely on that rank.
	Local [][]Sequence
	Rings []Ring
}

// NewPlan allocates an empty plan for a world size.
func NewPlan(world int) *Plan {
	return &Plan{World: world, Local: make([][]Sequence, world)}
}

// TokensPerRank returns the attention-layout token count of every rank.
func (p *Plan) TokensPerRank() []int {
	return p.TokensPerRankInto(nil, nil)
}

// TokensPerRankInto is TokensPerRank accumulating into dst (zeroed and
// reused when it has capacity for the world) with share as ring-split
// scratch, for allocation-free accounting in planner hot paths.
func (p *Plan) TokensPerRankInto(dst, share []int) []int {
	if cap(dst) >= p.World {
		dst = dst[:p.World]
		for i := range dst {
			dst[i] = 0
		}
	} else {
		dst = make([]int, p.World)
	}
	for r, ls := range p.Local {
		for _, s := range ls {
			dst[r] += s.Len
		}
	}
	for _, ring := range p.Rings {
		share = ring.TokensPerRankInto(share)
		for i, r := range ring.Ranks {
			dst[r] += share[i]
		}
	}
	return dst
}

// PairsPerRank returns the causal-pair (quadratic attention) load of every
// rank, the balance metric of Alg. 2.
func (p *Plan) PairsPerRank() []float64 {
	out := make([]float64, p.World)
	for r, ls := range p.Local {
		for _, s := range ls {
			out[r] += model.CausalPairs(float64(s.Len))
		}
	}
	for _, ring := range p.Rings {
		pp := ring.PairShares()
		for i, r := range ring.Ranks {
			out[r] += pp[i]
		}
	}
	return out
}

// TotalTokens sums all placed tokens.
func (p *Plan) TotalTokens() int {
	var n int
	for _, t := range p.TokensPerRank() {
		n += t
	}
	return n
}

// Validate checks structural invariants: ranks in range, ring sizes ≥ 2,
// no duplicate ranks within a ring, zone consistency, and exact token
// conservation against the input batch.
func (p *Plan) Validate(batch []Sequence) error {
	if len(p.Local) != p.World {
		return fmt.Errorf("plan: local lists %d != world %d", len(p.Local), p.World)
	}
	placed := make(map[int]int) // seq ID -> placed tokens
	for r, ls := range p.Local {
		if r < 0 || r >= p.World {
			return fmt.Errorf("plan: rank %d out of range", r)
		}
		for _, s := range ls {
			placed[s.ID] += s.Len
		}
	}
	for i, ring := range p.Rings {
		if ring.G() < 2 {
			return fmt.Errorf("plan: ring %d has %d ranks, need >= 2", i, ring.G())
		}
		if ring.Zone == ZoneLocal {
			return fmt.Errorf("plan: ring %d marked local", i)
		}
		seen := make(map[int]bool)
		for _, r := range ring.Ranks {
			if r < 0 || r >= p.World {
				return fmt.Errorf("plan: ring %d rank %d out of range", i, r)
			}
			if seen[r] {
				return fmt.Errorf("plan: ring %d has duplicate rank %d", i, r)
			}
			seen[r] = true
		}
		if ring.Weights != nil {
			if len(ring.Weights) != ring.G() {
				return fmt.Errorf("plan: ring %d has %d weights for %d ranks", i, len(ring.Weights), ring.G())
			}
			for j, w := range ring.Weights {
				if w <= 0 {
					return fmt.Errorf("plan: ring %d weight %d is non-positive", i, j)
				}
			}
		}
		placed[ring.Seq.ID] += ring.Seq.Len
	}
	want := make(map[int]int)
	for _, s := range batch {
		want[s.ID] += s.Len
	}
	if len(placed) != len(want) {
		return fmt.Errorf("plan: placed %d distinct sequences, batch has %d", len(placed), len(want))
	}
	for id, n := range want {
		if placed[id] != n {
			return fmt.Errorf("plan: sequence %d placed %d tokens, want %d", id, placed[id], n)
		}
	}
	return nil
}

// SplitEven splits n into k near-equal non-negative parts that sum to n,
// larger parts first. Panics if k <= 0.
func SplitEven(n, k int) []int {
	return SplitEvenInto(nil, n, k)
}

// SplitEvenInto is SplitEven writing into dst when it has capacity k.
func SplitEvenInto(dst []int, n, k int) []int {
	if k <= 0 {
		panic("seq: SplitEven with k <= 0")
	}
	out := sized(dst, k)
	base, rem := n/k, n%k
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// sized returns dst truncated to k when it has the capacity, or a fresh
// slice otherwise.
func sized(dst []int, k int) []int {
	if cap(dst) >= k {
		return dst[:k]
	}
	return make([]int, k)
}

// SplitWeighted splits n into len(weights) non-negative parts
// proportional to the weights (largest-remainder rounding, remainders
// broken by index), summing exactly to n. Equal weights give SplitEven's
// split. Non-positive weights receive nothing; if no weight is positive
// the split falls back to even. Panics on an empty weight vector.
func SplitWeighted(n int, weights []float64) []int {
	return SplitWeightedInto(nil, n, weights)
}

// SplitWeightedInto is SplitWeighted writing into dst when it has
// capacity len(weights). Equal weights take SplitEvenInto without
// allocating; unequal ones allocate the rounding scratch.
func SplitWeightedInto(dst []int, n int, weights []float64) []int {
	k := len(weights)
	if k <= 0 {
		panic("seq: SplitWeighted with no weights")
	}
	equal := true
	var sum float64
	for _, w := range weights {
		equal = equal && w == weights[0]
		if w > 0 {
			sum += w
		}
	}
	if equal || sum <= 0 {
		return SplitEvenInto(dst, n, k)
	}
	out := sized(dst, k)
	for i := range out {
		out[i] = 0
	}
	frac := make([]float64, k)
	assigned := 0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		exact := float64(n) * w / sum
		out[i] = int(exact)
		frac[i] = exact - float64(out[i])
		assigned += out[i]
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for i := 0; assigned < n; i++ {
		out[order[i%k]]++
		assigned++
	}
	return out
}

// SortByLenDesc sorts sequences longest-first (ties broken by ascending
// ID — a total order, so the result is deterministic), the ordering both
// partitioning algorithms start from. slices.SortFunc avoids the
// closure/interface allocations of sort.Slice on the planning hot path.
func SortByLenDesc(s []Sequence) {
	slices.SortFunc(s, func(a, b Sequence) int {
		if a.Len != b.Len {
			return b.Len - a.Len
		}
		return a.ID - b.ID
	})
}

// TotalLen sums sequence lengths.
func TotalLen(s []Sequence) int {
	var n int
	for _, q := range s {
		n += q.Len
	}
	return n
}
