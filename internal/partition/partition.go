// Package partition implements Zeppelin's hierarchical sequence
// partitioner (§3.1): Algorithm 1 assigns sequences to node buckets,
// splitting inter-node-zone sequences across nodes to balance
// communication; Algorithm 2 then partitions within each node, splitting
// intra-node-zone sequences to balance quadratic attention computation and
// placing local-zone sequences on the least-loaded devices. Both
// algorithms iteratively lower their zone threshold whenever a placement
// would exceed capacity, which guarantees a feasible plan whenever the
// batch fits in aggregate memory.
//
// A Partitioner owns reusable scratch buffers: repeated Plan calls (the
// per-iteration hot path of streaming campaigns) and the threshold-retry
// loops inside one call allocate almost nothing beyond the plan they
// return. The Incremental planner (incremental.go) layers a keyed plan
// cache and delta patching on top for the re-planning fast path; one
// exact-key LRU type (plancache.go) backs both its per-planner cache and
// the process-wide SharedCache.
package partition

import (
	"fmt"
	"math"

	"zeppelin/internal/cluster"
	"zeppelin/internal/seq"
)

// Config parameterizes the partitioner.
type Config struct {
	Cluster *cluster.Cluster
	// CapacityTokens is L, the per-device token capacity.
	CapacityTokens int
	// Speeds, when set, is the per-rank relative speed vector (1 =
	// nominal, 0.4 = a 2.5×-slow straggler) of the degraded effective-speed
	// cluster view. The partitioner then balances *time* instead of
	// tokens: greedy placement weighs each rank's load by 1/speed, and
	// ring fragments claim the least-time-loaded devices instead of the
	// round-robin cursor, steering work away from slow ranks. Capacity
	// checks stay in raw tokens (memory does not speed up). Nil reproduces
	// the paper's homogeneous-cluster behavior exactly.
	Speeds []float64
}

// validate checks a configuration.
func (cfg *Config) validate() error {
	if cfg.Cluster == nil {
		return fmt.Errorf("partition: nil cluster")
	}
	if cfg.CapacityTokens <= 0 {
		return fmt.Errorf("partition: capacity must be positive, got %d", cfg.CapacityTokens)
	}
	if cfg.Speeds != nil {
		if len(cfg.Speeds) != cfg.Cluster.World() {
			return fmt.Errorf("partition: %d speeds for world of %d", len(cfg.Speeds), cfg.Cluster.World())
		}
		for r, s := range cfg.Speeds {
			if s <= 0 {
				return fmt.Errorf("partition: rank %d has non-positive speed %v", r, s)
			}
		}
	}
	return nil
}

// Partitioner runs the two-level hierarchical strategy. The zero value is
// unusable; construct with New. Not safe for concurrent use (the scratch
// buffers are shared across calls).
type Partitioner struct {
	cfg Config

	// Scratch reused across Plan calls. None of these are retained by
	// returned plans.
	sorted     []seq.Sequence
	nodeSpeed  []float64
	interShare [][]int
	share      []int // inter-ring emission scratch
	chain      []int // Alg. 1 candidate threshold chain

	inter interScratch // Alg. 1 scratch
	intra intraScratch // Alg. 2 scratch
}

// New validates the configuration.
func New(cfg Config) (*Partitioner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Partitioner{cfg: cfg}, nil
}

// Reconfigure swaps the configuration while keeping the scratch buffers,
// so a long-lived planner (the Incremental fast path) re-plans under a
// changed capacity or effective-speed view without re-allocating.
func (p *Partitioner) Reconfigure(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	p.cfg = cfg
	return nil
}

// Result is a placement plan plus the thresholds the algorithms converged
// to, for diagnostics and the Fig. 5 zone analysis.
type Result struct {
	Plan *seq.Plan
	// S1 is the final inter-node zone threshold of Alg. 1 (sequences of
	// length >= S1 are split across nodes).
	S1 int
	// S0 is the final intra-node threshold per node from Alg. 2.
	S0 []int
}

// interPlacement records a z2 sequence chunked across a set of nodes.
type interPlacement struct {
	s     seq.Sequence
	nodes []int
}

// pickScratch holds the least-loaded selection buffers; each
// algorithm's scratch owns one.
type pickScratch struct {
	pick []int
	eff  []float64
}

// interScratch is the Alg. 1 evaluation context: evalInter is a pure
// function of (sorted, threshold) writing only here.
type interScratch struct {
	pickScratch
	nodeLoad []int
	nodeSeqs [][]seq.Sequence
	inters   []interPlacement
	z01, z2  []seq.Sequence
	share    []int
}

// intraScratch is the Alg. 2 working context. After intraNode returns,
// local and rings hold that node's placement until the next node's
// solve.
type intraScratch struct {
	pickScratch
	devLoad  []int
	devSpeed []float64
	z0, z1   []seq.Sequence
	share    []int
	local    [][]seq.Sequence // per-device local sequences
	rings    []seq.Ring
}

// Plan partitions a batch across the cluster. It errors if the batch
// cannot fit (total tokens exceed aggregate capacity) or if any single
// sequence exceeds the cluster-wide token capacity. The returned plan
// shares nothing with the partitioner's scratch and stays valid across
// later Plan calls.
func (p *Partitioner) Plan(batch []seq.Sequence) (*Result, error) {
	c := p.cfg.Cluster
	N, P, L := c.Nodes, c.GPUsPerNode, p.cfg.CapacityTokens
	if total := seq.TotalLen(batch); total > N*P*L {
		return nil, fmt.Errorf("partition: batch of %d tokens exceeds capacity %d", total, N*P*L)
	}
	for _, s := range batch {
		if s.Len <= 0 {
			return nil, fmt.Errorf("partition: sequence %d has non-positive length", s.ID)
		}
	}
	p.sorted = append(p.sorted[:0], batch...)
	seq.SortByLenDesc(p.sorted)

	// Under a degraded cluster view, a node's effective speed is the sum
	// of its ranks' speeds — Alg. 1 then assigns fewer tokens to nodes
	// hosting stragglers.
	nodeSpeed := p.nodeSpeeds(N)

	s1, err := p.interNode(p.sorted, N, P, L, nodeSpeed)
	if err != nil {
		return nil, err
	}
	nodeSeqs, inters := p.inter.nodeSeqs, p.inter.inters

	plan := seq.NewPlan(c.World())
	res := &Result{Plan: plan, S1: s1, S0: make([]int, N)}

	// Inter-node rings: a sequence chunked over k nodes rings over all
	// k·P ranks (Alg. 2 lines 4–6 split each node's chunk across all P
	// devices). A chunk count of 1 degenerates to an intra-node ring.
	interShare := p.interShareBuf(N, P)
	for _, ip := range inters {
		ranks := make([]int, 0, len(ip.nodes)*P)
		for _, n := range ip.nodes {
			ranks = append(ranks, c.RanksOfNode(n)...)
		}
		zone := seq.ZoneInter
		if len(ip.nodes) == 1 {
			zone = seq.ZoneIntra
		}
		ring := seq.Ring{Seq: ip.s, Zone: zone, Ranks: ranks, Weights: p.ringWeights(ranks)}
		plan.Rings = append(plan.Rings, ring)
		p.share = ring.TokensPerRankInto(p.share)
		for i, r := range ranks {
			interShare[c.NodeOf(r)][c.LocalRank(r)] += p.share[i]
		}
	}

	// Per-node Alg. 2 solves, merged into the plan in node order.
	for n := 0; n < N; n++ {
		s0, err := p.intraNode(n, nodeSeqs[n], interShare[n])
		if err != nil {
			return nil, fmt.Errorf("partition: node %d: %w", n, err)
		}
		for d, r := range c.RanksOfNode(n) {
			plan.Local[r] = append(plan.Local[r], p.intra.local[d]...)
		}
		plan.Rings = append(plan.Rings, p.intra.rings...)
		res.S0[n] = s0
	}
	return res, nil
}

// nodeSpeeds computes the per-node effective speed scratch (nil when the
// cluster view is healthy).
func (p *Partitioner) nodeSpeeds(n int) []float64 {
	if p.cfg.Speeds == nil {
		return nil
	}
	c := p.cfg.Cluster
	p.nodeSpeed = growF(p.nodeSpeed, n)
	for nd := 0; nd < n; nd++ {
		var sum float64
		lo := nd * c.GPUsPerNode
		for i := 0; i < c.GPUsPerNode; i++ {
			sum += p.cfg.Speeds[lo+i]
		}
		p.nodeSpeed[nd] = sum
	}
	return p.nodeSpeed
}

// interShareBuf returns the zeroed per-node × per-device inter-ring load
// scratch.
func (p *Partitioner) interShareBuf(n, dev int) [][]int {
	if cap(p.interShare) < n {
		p.interShare = make([][]int, n)
	}
	p.interShare = p.interShare[:n]
	for i := range p.interShare {
		p.interShare[i] = growI(p.interShare[i], dev)
		for j := range p.interShare[i] {
			p.interShare[i][j] = 0
		}
	}
	return p.interShare
}

// thresholdChain builds the Alg. 1 candidate threshold sequence: the
// retry loop starts at P·L and, on each capacity failure, lowers the
// threshold to the longest sequence below it — i.e. it walks P·L
// followed by the distinct sequence lengths in strictly descending order.
// The final candidate always succeeds (every sequence is then inter-zone
// and chunked placement never capacity-checks), so the chain is the
// complete space the retry loop can visit.
func (p *Partitioner) thresholdChain(sorted []seq.Sequence, start int) []int {
	chain := append(p.chain[:0], start)
	last := start
	for _, s := range sorted { // descending, so distinct lengths emerge in order
		if s.Len < last {
			chain = append(chain, s.Len)
			last = s.Len
		}
	}
	p.chain = chain
	return chain
}

// interNode is Algorithm 1: it walks the candidate chain one threshold
// at a time and returns the first that places every sequence, leaving
// the assignment in p.inter.
func (p *Partitioner) interNode(sorted []seq.Sequence, n, pp, l int, nodeSpeed []float64) (int, error) {
	for _, s1 := range p.thresholdChain(sorted, pp*l) {
		if evalInter(&p.inter, sorted, n, pp, l, s1, nodeSpeed) {
			return s1, nil
		}
	}
	return 0, fmt.Errorf("inter-node partitioning did not converge")
}

// evalInter is one Algorithm 1 evaluation at a fixed threshold s1: it
// splits the zones, chunks z2 sequences across least-loaded nodes, and
// greedily places z01 sequences, reporting false as soon as a placement
// would exceed node capacity. It reads nothing but its arguments and
// writes nothing but scr. sorted must be in descending length order; on
// success scr.nodeSeqs and scr.inters hold the assignment, valid until
// the scratch is reused.
func evalInter(scr *interScratch, sorted []seq.Sequence, n, pp, l, s1 int, nodeSpeed []float64) bool {
	scr.nodeLoad = growI(scr.nodeLoad, n)
	nodeLoad := scr.nodeLoad
	for i := range nodeLoad {
		nodeLoad[i] = 0
	}
	if cap(scr.nodeSeqs) < n {
		scr.nodeSeqs = make([][]seq.Sequence, n)
	}
	scr.nodeSeqs = scr.nodeSeqs[:n]
	nodeSeqs := scr.nodeSeqs
	for i := range nodeSeqs {
		nodeSeqs[i] = nodeSeqs[i][:0]
	}
	inters := scr.inters[:0]

	z01, z2 := scr.z01[:0], scr.z2[:0]
	for _, s := range sorted {
		if s.Len >= s1 {
			z2 = append(z2, s)
		} else {
			z01 = append(z01, s)
		}
	}
	scr.z01, scr.z2 = z01, z2
	if len(z2) > 0 {
		sAvg := float64(seq.TotalLen(z2)) / float64(n)
		for _, s := range z2 {
			k := int(math.Ceil(float64(s.Len) / sAvg))
			if k < 1 {
				k = 1
			}
			if k > n {
				k = n
			}
			// leastLoaded returns scratch; copy because the placement
			// outlives this call's next selection.
			nodes := append([]int(nil), scr.leastLoaded(nodeLoad, k, nodeSpeed)...)
			share := seq.SplitEvenInto(scr.share, s.Len, k)
			if nodeSpeed != nil {
				// The emitted ring carries speed-proportional rank
				// weights, so each node's real token share is its speed
				// share — account (and capacity-check) the same way.
				w := make([]float64, k)
				for i, nd := range nodes {
					w[i] = nodeSpeed[nd]
				}
				share = seq.SplitWeightedInto(scr.share, s.Len, w)
			}
			scr.share = share
			for i, nd := range nodes {
				nodeLoad[nd] += share[i]
			}
			inters = append(inters, interPlacement{s: s, nodes: nodes})
		}
	}
	scr.inters = inters
	for _, s := range z01 {
		idx := argminLoad(nodeLoad, nodeSpeed)
		if s.Len+nodeLoad[idx] > pp*l {
			// z01 is sorted descending, so its first element is the
			// longest; the retry loop's next threshold is exactly the
			// next chain candidate.
			return false
		}
		nodeSeqs[idx] = append(nodeSeqs[idx], s)
		nodeLoad[idx] += s.Len
	}
	return true
}

// intraNode is Algorithm 2 for one node: it splits intra-node-zone
// sequences into quadratic-cost-balanced fragments (forming intra-node
// rings) and packs local-zone sequences onto the least-loaded devices,
// iteratively lowering the zone threshold on capacity failure. interShare
// carries the token loads already imposed by inter-node rings. It
// returns the converged threshold; the node's placement is left in
// p.intra.local and p.intra.rings.
func (p *Partitioner) intraNode(node int, assigned []seq.Sequence, interShare []int) (int, error) {
	scr := &p.intra
	c := p.cfg.Cluster
	P, L := c.GPUsPerNode, p.cfg.CapacityTokens
	ranks := c.RanksOfNode(node)
	if cap(scr.local) < P {
		scr.local = make([][]seq.Sequence, P)
	}
	scr.local = scr.local[:P]
	var devSpeed []float64
	if p.cfg.Speeds != nil {
		scr.devSpeed = growF(scr.devSpeed, P)
		devSpeed = scr.devSpeed
		for d, r := range ranks {
			devSpeed[d] = p.cfg.Speeds[r]
		}
	}
	scr.devLoad = growI(scr.devLoad, P)
	s0 := L
	for iter := 0; ; iter++ {
		if iter > len(assigned)+2 {
			return 0, fmt.Errorf("intra-node partitioning did not converge")
		}
		devLoad := scr.devLoad
		copy(devLoad, interShare)
		local := scr.local
		for i := range local {
			local[i] = local[i][:0]
		}
		rings := scr.rings[:0]

		z0, z1 := scr.z0[:0], scr.z1[:0]
		for _, s := range assigned { // assigned preserves descending order
			if s.Len >= s0 {
				z1 = append(z1, s)
			} else {
				z0 = append(z0, s)
			}
		}
		scr.z0, scr.z1 = z0, z1
		if len(z1) > 0 {
			var cAvg float64
			for _, s := range z1 {
				cAvg += float64(s.Len) * float64(s.Len)
			}
			cAvg /= float64(P)
			rr := 0 // round-robin cursor continues across sequences
			for _, s := range z1 {
				k := int(math.Ceil(float64(s.Len) * float64(s.Len) / cAvg))
				if k < 1 {
					k = 1
				}
				if k > P {
					k = P
				}
				if k == 1 {
					// A single fragment needs no ring; place like a local
					// sequence on the round-robin device (least-time-loaded
					// under a degraded view).
					d := rr % P
					if devSpeed != nil {
						d = argminLoad(devLoad, devSpeed)
					}
					local[d] = append(local[d], s)
					devLoad[d] += s.Len
					rr++
					continue
				}
				devs := make([]int, k)
				if devSpeed == nil {
					share := seq.SplitEvenInto(scr.share, s.Len, k)
					scr.share = share
					for i := 0; i < k; i++ {
						d := (rr + i) % P
						devs[i] = ranks[d]
						devLoad[d] += share[i]
					}
					rr += k
					rings = append(rings, seq.Ring{Seq: s, Zone: seq.ZoneIntra, Ranks: devs})
					continue
				}
				// Degraded view: a ring's lock-stepped rounds run at its
				// slowest member's pace, so fragments claim the k
				// least-time-loaded devices and weight their query-chunk
				// shares by speed — stragglers hold smaller chunks and the
				// rounds stay time-balanced.
				chosen := scr.leastLoaded(devLoad, k, devSpeed)
				for i, d := range chosen {
					devs[i] = ranks[d]
				}
				ring := seq.Ring{Seq: s, Zone: seq.ZoneIntra, Ranks: devs, Weights: p.ringWeights(devs)}
				scr.share = ring.TokensPerRankInto(scr.share)
				for i, d := range chosen {
					devLoad[d] += scr.share[i]
				}
				rings = append(rings, ring)
			}
		}
		scr.rings = rings
		retry := false
		for _, s := range z0 {
			idx := argminLoad(devLoad, devSpeed)
			if s.Len+devLoad[idx] > L {
				s0 = z0[0].Len
				retry = true
				break
			}
			local[idx] = append(local[idx], s)
			devLoad[idx] += s.Len
		}
		if !retry {
			return s0, nil
		}
	}
}

// ringWeights returns speed-proportional ring weights for a rank set
// (nil on a healthy cluster, preserving the even 2G-chunk split).
func (p *Partitioner) ringWeights(ranks []int) []float64 {
	if p.cfg.Speeds == nil {
		return nil
	}
	out := make([]float64, len(ranks))
	for i, r := range ranks {
		out[i] = p.cfg.Speeds[r]
	}
	return out
}

// leastLoaded returns the indices of the k smallest loads, ties broken by
// index, in increasing-load order. A non-nil speed vector compares
// effective time loads (load/speed) instead of raw token loads. The
// result is selection scratch, valid until the next call on the same
// pickScratch.
func (ps *pickScratch) leastLoaded(load []int, k int, speed []float64) []int {
	n := len(load)
	ps.pick = growI(ps.pick, n)
	idx := ps.pick
	if k == 1 {
		// Early exit: the common single-fragment case needs only argmin,
		// not a k-selection pass.
		idx[0] = argminLoad(load, speed)
		return idx[:1]
	}
	for i := range idx {
		idx[i] = i
	}
	if speed == nil {
		// Selection sort of the first k: loads are tiny (#nodes or #devices).
		for i := 0; i < k; i++ {
			best := i
			for j := i + 1; j < n; j++ {
				if load[idx[j]] < load[idx[best]] {
					best = j
				}
			}
			idx[i], idx[best] = idx[best], idx[i]
		}
		return idx[:k]
	}
	// Speed-aware: precompute effective time loads once instead of
	// dividing inside the O(k·n) comparison loop. The explicit index
	// tie-break matters here: selection swaps perturb idx order, so
	// strict-smaller alone would resolve equal effective loads by
	// position, not by rank index.
	ps.eff = growF(ps.eff, n)
	eff := ps.eff
	for i := 0; i < n; i++ {
		eff[i] = float64(load[i]) / speed[i]
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			ej, eb := eff[idx[j]], eff[idx[best]]
			if ej < eb || (ej == eb && idx[j] < idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// argminLoad is the greedy least-loaded choice: raw token loads when
// speed is nil, effective time loads (load/speed) otherwise. Ties break
// by index in both modes.
func argminLoad(v []int, speed []float64) int {
	best := 0
	if speed == nil {
		for i, x := range v {
			if x < v[best] {
				best = i
			}
		}
		return best
	}
	for i := range v {
		if float64(v[i])/speed[i] < float64(v[best])/speed[best] {
			best = i
		}
	}
	return best
}

// growI returns s resized to n, reusing capacity (contents unspecified).
func growI(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// growF is growI for float64 scratch.
func growF(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}
