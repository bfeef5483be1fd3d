// Package remap implements Zeppelin's remapping layer (§3.4): before the
// linear modules it transforms the attention-optimized token layout into a
// token-balanced layout, and restores it afterwards. The transfer matrix
// is the solution of the paper's Eq. 2 — minimize the maximum per-rank
// communication cost subject to surplus/deficit conservation, with
// two-tier per-token costs (intra-node vs inter-node bandwidth).
//
// The paper solves Eq. 2 with Gurobi. Because the cost matrix T has only
// two distinct values, the optimum has a closed structure: match surplus
// to deficit within each node first (strictly cheaper for every sender),
// then ship each node's residual surplus across nodes, water-filling the
// inter-node volume across the node's senders so their total costs
// equalize. This package computes that solution exactly (up to integer
// rounding) and its optimality is cross-checked against the generic
// min-cost-flow solver in package flow by the tests.
package remap

import (
	"fmt"
	"sort"

	"zeppelin/internal/cluster"
	"zeppelin/internal/collective"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
)

// Transfer moves Tokens from rank From to rank To.
type Transfer struct {
	From, To int
	Tokens   int
}

// Plan is a concrete remapping: the transfers plus diagnostics.
type Plan struct {
	// Target is the balanced token count per rank after applying the plan.
	Target []int
	// Transfers lists all point-to-point moves.
	Transfers []Transfer
	// MaxSenderCost is the Eq. 2 objective achieved: the largest
	// Σ_j T_ij·M_ij over senders i, in seconds.
	MaxSenderCost float64
	// InterTokens is the total cross-node volume (minimal by construction).
	InterTokens int
}

// BalancedTarget returns the per-rank token counts of a perfectly
// token-balanced layout: ⌊total/d⌋ with the remainder spread over the
// first ranks.
func BalancedTarget(tokens []int) []int {
	d := len(tokens)
	var total int
	for _, t := range tokens {
		total += t
	}
	out := make([]int, d)
	base, rem := total/d, total%d
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// WeightedTarget returns per-rank token counts proportional to a weight
// vector (seq.SplitWeighted's largest-remainder rounding — the same
// arithmetic the partitioner's weighted ring shares use), conserving
// the input total. With a cluster's relative-speed vector as weights it
// is the speed-weighted layout the remapping layer steers to: slow ranks
// receive fewer tokens so the token-wise linear modules finish together.
// weights holds one entry per rank; uniform weights, and nil, which
// stands for them, give BalancedTarget.
func WeightedTarget(tokens []int, weights []float64) []int {
	if weights == nil {
		return BalancedTarget(tokens)
	}
	var total int
	for _, t := range tokens {
		total += t
	}
	return seq.SplitWeighted(total, weights)
}

// Solve computes the Eq. 2 remapping for a token distribution over the
// cluster's ranks. bIntra and bInter are inverse bandwidths in seconds
// per token-byte unit; callers typically pass activation-bytes-scaled
// values from the cost model, but any consistent unit works since only
// the plan structure and relative costs matter.
func Solve(tokens []int, c *cluster.Cluster, bIntra, bInter float64) (*Plan, error) {
	return SolveTarget(tokens, nil, c, bIntra, bInter)
}

// SolveTarget is Solve toward an arbitrary feasible target layout: the
// same Eq. 2 bottleneck objective, but steering the tokens to `target`
// instead of the perfectly balanced layout. A nil target selects
// BalancedTarget. The elastic-rescaling path uses it to drain leaving
// ranks (target 0 there) and to seed joining ranks, and the degraded-
// cluster path to weight the layout by effective rank speed. The target
// must conserve the token total.
func SolveTarget(tokens, target []int, c *cluster.Cluster, bIntra, bInter float64) (*Plan, error) {
	if len(tokens) != c.World() {
		return nil, fmt.Errorf("remap: %d token counts for world of %d", len(tokens), c.World())
	}
	if bIntra <= 0 || bInter <= 0 || bIntra > bInter {
		return nil, fmt.Errorf("remap: need 0 < bIntra <= bInter, got %v, %v", bIntra, bInter)
	}
	for i, t := range tokens {
		if t < 0 {
			return nil, fmt.Errorf("remap: rank %d has negative tokens", i)
		}
	}
	if target == nil {
		target = BalancedTarget(tokens)
	} else {
		if len(target) != len(tokens) {
			return nil, fmt.Errorf("remap: %d targets for world of %d", len(target), len(tokens))
		}
		var haveTotal, wantTotal int
		for i, t := range target {
			if t < 0 {
				return nil, fmt.Errorf("remap: rank %d has negative target", i)
			}
			haveTotal += tokens[i]
			wantTotal += t
		}
		if haveTotal != wantTotal {
			return nil, fmt.Errorf("remap: target totals %d tokens, have %d", wantTotal, haveTotal)
		}
	}
	p := &Plan{Target: target}

	surplus := make([]int, len(tokens)) // tokens to send
	deficit := make([]int, len(tokens)) // tokens to receive
	for i := range tokens {
		if d := tokens[i] - target[i]; d > 0 {
			surplus[i] = d
		} else {
			deficit[i] = -d
		}
	}

	// Per-sender intra/inter split; intraSent fills in during matching.
	intraSent := make([]int, len(tokens))

	// Phase 1: intra-node matching. Within each node, greedily match
	// surplus ranks to deficit ranks; every intra token saves its sender
	// (bInter − bIntra) relative to shipping it out, so maximal intra
	// matching is optimal for any bottleneck objective. Ranks of node n
	// are the contiguous block [n·P, (n+1)·P).
	P := c.GPUsPerNode
	for n := 0; n < c.Nodes; n++ {
		lo, hi := n*P, (n+1)*P
		s, d := lo, lo
		for s < hi && d < hi {
			if surplus[s] == 0 {
				s++
				continue
			}
			if deficit[d] == 0 {
				d++
				continue
			}
			m := min(surplus[s], deficit[d])
			p.Transfers = append(p.Transfers, Transfer{From: s, To: d, Tokens: m})
			surplus[s] -= m
			deficit[d] -= m
			intraSent[s] += m
		}
	}

	// Phase 2: inter-node shipping with per-node water-filling. For each
	// node with residual surplus, choose how much each of its senders
	// ships inter so the maximum sender cost is minimized:
	// cost_i = bIntra·intra_i + bIntra·(s_i − x_i) + bInter·x_i is wrong —
	// the residual s_i must all go inter; what we can rebalance is which
	// sender's tokens were matched intra in phase 1. Re-run the split per
	// node: total intra capacity is fixed, reassign it to equalize costs.
	for n := 0; n < c.Nodes; n++ {
		rebalanceNode(c, n, tokens, target, intraSent)
	}
	// Rebuild transfers from the adjusted splits: phase 1 transfers are
	// regenerated (the matching pairs within a node are cost-identical).
	// recvLeft is a flat per-rank vector rather than a per-node map — the
	// planner re-solves remapping every iteration, so this loop is on the
	// campaign hot path and map churn shows up in allocs/op.
	p.Transfers = p.Transfers[:0]
	interSend := make([]int, len(tokens))
	recvLeft := make([]int, len(tokens))
	for n := 0; n < c.Nodes; n++ {
		lo, hi := n*P, (n+1)*P
		// Intra matching honoring intraSent quotas.
		for r := lo; r < hi; r++ {
			if d := target[r] - tokens[r]; d > 0 {
				recvLeft[r] = d
			} else {
				recvLeft[r] = 0
			}
		}
		for r := lo; r < hi; r++ {
			s := tokens[r] - target[r]
			if s <= 0 {
				continue
			}
			give := min(intraSent[r], s)
			for d := lo; d < hi; d++ {
				if give == 0 {
					break
				}
				if recvLeft[d] == 0 {
					continue
				}
				m := min(give, recvLeft[d])
				p.Transfers = append(p.Transfers, Transfer{From: r, To: d, Tokens: m})
				recvLeft[d] -= m
				give -= m
				s -= m
			}
			interSend[r] = s
			p.InterTokens += s
		}
	}

	// Phase 3: route inter tokens to cross-node deficits (receiver choice
	// does not affect the Eq. 2 objective; pair deterministically).
	type slot struct{ rank, amt int }
	var senders, receivers []slot
	for i := range tokens {
		if interSend[i] > 0 {
			senders = append(senders, slot{i, interSend[i]})
		}
	}
	recvNeed := make([]int, len(tokens))
	for i := range tokens {
		recvNeed[i] = target[i] - tokens[i]
	}
	for _, tr := range p.Transfers {
		recvNeed[tr.To] -= tr.Tokens
	}
	for i, need := range recvNeed {
		if need > 0 {
			receivers = append(receivers, slot{i, need})
		}
	}
	si, ri := 0, 0
	for si < len(senders) && ri < len(receivers) {
		s, r := &senders[si], &receivers[ri]
		if s.amt == 0 {
			si++
			continue
		}
		if r.amt == 0 {
			ri++
			continue
		}
		m := min(s.amt, r.amt)
		p.Transfers = append(p.Transfers, Transfer{From: s.rank, To: r.rank, Tokens: m})
		s.amt -= m
		r.amt -= m
	}
	for _, s := range senders {
		if s.amt != 0 {
			return nil, fmt.Errorf("remap: internal error, %d unrouted tokens at rank %d", s.amt, s.rank)
		}
	}

	// Objective value.
	cost := make([]float64, len(tokens))
	for _, tr := range p.Transfers {
		per := bInter
		if c.SameNode(tr.From, tr.To) {
			per = bIntra
		}
		cost[tr.From] += per * float64(tr.Tokens)
	}
	for _, cst := range cost {
		if cst > p.MaxSenderCost {
			p.MaxSenderCost = cst
		}
	}
	return p, nil
}

// rebalanceNode redistributes a node's fixed intra-matching capacity over
// its surplus ranks so that sender costs equalize (water-fill): senders
// with larger surplus get more of the cheap intra quota. Mutates intraSent.
func rebalanceNode(c *cluster.Cluster, node int, tokens, target, intraSent []int) {
	lo, hi := node*c.GPUsPerNode, (node+1)*c.GPUsPerNode
	var sendersIdx []int
	var capTotal, surplusTotal int
	for r := lo; r < hi; r++ {
		if s := tokens[r] - target[r]; s > 0 {
			sendersIdx = append(sendersIdx, r)
			surplusTotal += s
		}
		capTotal += intraSent[r]
	}
	if len(sendersIdx) <= 1 || capTotal == 0 {
		return
	}
	// Give intra quota preferentially to the largest surpluses: sender
	// cost is bIntra·intra + bInter·(s − intra); equalizing costs means
	// equalizing the inter share across senders as much as possible.
	// Water-fill the *inter* amounts: inter_i = max(s_i − w, 0) with w
	// chosen so Σ inter_i = surplusTotal − capTotal.
	interTotal := surplusTotal - capTotal
	if interTotal < 0 {
		interTotal = 0
	}
	s := make([]int, len(sendersIdx))
	for i, r := range sendersIdx {
		s[i] = tokens[r] - target[r]
	}
	// Binary search w over integers.
	wlo, whi := 0, 0
	for _, v := range s {
		if v > whi {
			whi = v
		}
	}
	interAt := func(w int) int {
		var sum int
		for _, v := range s {
			if v > w {
				sum += v - w
			}
		}
		return sum
	}
	for wlo < whi {
		mid := (wlo + whi) / 2
		if interAt(mid) > interTotal {
			wlo = mid + 1
		} else {
			whi = mid
		}
	}
	w := wlo
	inter := make([]int, len(s))
	assigned := 0
	for i, v := range s {
		if v > w {
			inter[i] = v - w
			assigned += inter[i]
		}
	}
	// interAt(w) <= interTotal: distribute the remainder to the senders
	// with the most remaining intra allocation (cost ties broken by index).
	rem := interTotal - assigned
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s[order[a]] > s[order[b]] })
	for rem > 0 {
		progressed := false
		for _, i := range order {
			if rem == 0 {
				break
			}
			if inter[i] < s[i] {
				inter[i]++
				rem--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	for i, r := range sendersIdx {
		intraSent[r] = s[i] - inter[i]
	}
}

// Emit schedules the plan's transfers as a dynamic-shape alltoallv on the
// fabric (the primitive the paper's implementation uses, §4); the
// returned barrier completes when every token has arrived. bytesPerToken
// converts token counts to wire bytes (activation width × element size).
func Emit(f *cluster.Fabric, label string, p *Plan, bytesPerToken float64, deps ...*sim.Task) *sim.Task {
	transfers := make([]collective.Transfer, 0, len(p.Transfers))
	for _, tr := range p.Transfers {
		transfers = append(transfers, collective.Transfer{
			From: tr.From, To: tr.To, Bytes: float64(tr.Tokens) * bytesPerToken,
		})
	}
	return collective.AllToAllV(f, label, transfers, deps...)
}

// Apply returns the token distribution after executing the plan, for
// verification.
func Apply(tokens []int, p *Plan) []int {
	out := append([]int(nil), tokens...)
	for _, tr := range p.Transfers {
		out[tr.From] -= tr.Tokens
		out[tr.To] += tr.Tokens
	}
	return out
}
