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
	// Speeds is the per-rank relative speed vector (1 = nominal, 0.4 = a
	// 2.5×-slow straggler) of the effective-speed cluster view. The
	// partitioner balances *time*, not tokens: greedy placement compares
	// each node's or device's load divided by its speed, and token and
	// query-chunk shares are proportional to speed, steering work away
	// from slow ranks. Capacity checks stay in raw tokens (memory does
	// not speed up). Uniform speeds give the paper's algorithm; nil
	// stands for all ones.
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
	ones       []float64 // the uniform view nil Speeds stands for
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

// interScratch is the Alg. 1 evaluation context: evalInter is a pure
// function of (sorted, threshold) writing only here.
type interScratch struct {
	load     loadVec
	nodeLoad []int
	nodeSeqs [][]seq.Sequence
	inters   []interPlacement
	z01, z2  []seq.Sequence
	share    []int
	weight   []float64 // chosen nodes' speeds
}

// intraScratch is the Alg. 2 working context. After intraNode returns,
// local and rings hold that node's placement until the next node's
// solve.
type intraScratch struct {
	load    loadVec
	devLoad []int
	z0, z1  []seq.Sequence
	share   []int
	local   [][]seq.Sequence // per-device local sequences
	rings   []seq.Ring
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

	// A node's speed is the sum of its ranks' speeds, so Alg. 1 assigns
	// fewer tokens to nodes hosting stragglers.
	speed := orOnes(p.cfg.Speeds, c.World(), &p.ones)
	p.nodeSpeed = grow(p.nodeSpeed, N)
	for n := range p.nodeSpeed {
		var sum float64
		for _, s := range speed[n*P : (n+1)*P] {
			sum += s
		}
		p.nodeSpeed[n] = sum
	}

	s1, err := p.interNode(p.sorted, N, P, L, p.nodeSpeed)
	if err != nil {
		return nil, err
	}
	nodeSeqs, inters := p.inter.nodeSeqs, p.inter.inters

	plan := seq.NewPlan(c.World())
	res := &Result{Plan: plan, S1: s1, S0: make([]int, N)}

	// Inter-node rings: a sequence chunked over k nodes rings over all
	// k·P ranks (Alg. 2 lines 4–6 split each node's chunk across all P
	// devices). A chunk count of 1 degenerates to an intra-node ring.
	// Node n's ranks are n·P … n·P+P−1.
	interShare := p.interShareBuf(N, P)
	for _, ip := range inters {
		ranks := make([]int, 0, len(ip.nodes)*P)
		for _, n := range ip.nodes {
			for d := 0; d < P; d++ {
				ranks = append(ranks, n*P+d)
			}
		}
		zone := seq.ZoneInter
		if len(ip.nodes) == 1 {
			zone = seq.ZoneIntra
		}
		ring := seq.Ring{Seq: ip.s, Zone: zone, Ranks: ranks, Weights: ringWeights(speed, ranks)}
		plan.Rings = append(plan.Rings, ring)
		p.share = ring.TokensPerRankInto(p.share)
		for j, n := range ip.nodes {
			for d, t := range p.share[j*P : (j+1)*P] {
				interShare[n][d] += t
			}
		}
	}

	// Per-node Alg. 2 solves, merged into the plan in node order.
	for n := 0; n < N; n++ {
		s0, err := p.intraNode(n, nodeSeqs[n], interShare[n], speed)
		if err != nil {
			return nil, fmt.Errorf("partition: node %d: %w", n, err)
		}
		for d, local := range p.intra.local {
			plan.Local[n*P+d] = append(plan.Local[n*P+d], local...)
		}
		plan.Rings = append(plan.Rings, p.intra.rings...)
		res.S0[n] = s0
	}
	return res, nil
}

// orOnes returns speeds, or n ones when speeds is nil: the one place the
// planner turns a nil speed vector into the uniform view it stands for.
// buf only ever holds ones, so it is filled once per growth.
func orOnes(speeds []float64, n int, buf *[]float64) []float64 {
	if speeds != nil {
		return speeds
	}
	if cap(*buf) < n {
		*buf = make([]float64, n)
		for i := range *buf {
			(*buf)[i] = 1
		}
	}
	return (*buf)[:n]
}

// interShareBuf returns the zeroed per-node × per-device inter-ring load
// scratch.
func (p *Partitioner) interShareBuf(n, dev int) [][]int {
	if cap(p.interShare) < n {
		p.interShare = make([][]int, n)
	}
	p.interShare = p.interShare[:n]
	for i := range p.interShare {
		p.interShare[i] = grow(p.interShare[i], dev)
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
// splits the zones, chunks z2 sequences across the least-time-loaded
// nodes in speed-proportional shares, and greedily places z01 sequences,
// reporting false as soon as a placement would exceed node capacity. It
// reads nothing but its arguments and writes nothing but scr. sorted
// must be in descending length order; on success scr.nodeSeqs and
// scr.inters hold the assignment, valid until the scratch is reused.
func evalInter(scr *interScratch, sorted []seq.Sequence, n, pp, l, s1 int, nodeSpeed []float64) bool {
	scr.nodeLoad = grow(scr.nodeLoad, n)
	clear(scr.nodeLoad)
	load := &scr.load
	load.init(scr.nodeLoad, nodeSpeed)
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
			// least returns scratch; copy because the placement outlives
			// this call's next selection.
			nodes := append([]int(nil), load.least(k)...)
			// The emitted ring weights its ranks by speed, so each node's
			// token share is its speed share: account (and capacity-check)
			// the same way.
			w := grow(scr.weight, len(nodes))
			for i, nd := range nodes {
				w[i] = nodeSpeed[nd]
			}
			scr.weight = w
			share := seq.SplitWeightedInto(scr.share, s.Len, w)
			scr.share = share
			for i, nd := range nodes {
				load.add(nd, share[i])
			}
			inters = append(inters, interPlacement{s: s, nodes: nodes})
		}
	}
	scr.inters = inters
	for _, s := range z01 {
		idx := load.argmin()
		if s.Len+load.tok[idx] > pp*l {
			// z01 is sorted descending, so its first element is the
			// longest; the retry loop's next threshold is exactly the
			// next chain candidate.
			return false
		}
		nodeSeqs[idx] = append(nodeSeqs[idx], s)
		load.add(idx, s.Len)
	}
	return true
}

// intraNode is Algorithm 2 for one node: it splits intra-node-zone
// sequences into quadratic-cost-balanced fragments (forming intra-node
// rings on the round-robin device cursor, query chunks weighted by
// speed) and packs local-zone sequences onto the least-time-loaded
// devices, iteratively lowering the zone threshold on capacity failure.
// interShare carries the token loads already imposed by inter-node
// rings. It returns the converged threshold; the node's placement is
// left in p.intra.local and p.intra.rings.
func (p *Partitioner) intraNode(node int, assigned []seq.Sequence, interShare []int, speed []float64) (int, error) {
	scr := &p.intra
	c := p.cfg.Cluster
	P, L := c.GPUsPerNode, p.cfg.CapacityTokens
	first := node * P // the node's ranks are first … first+P−1
	if cap(scr.local) < P {
		scr.local = make([][]seq.Sequence, P)
	}
	scr.local = scr.local[:P]
	devSpeed := speed[first : first+P]
	scr.devLoad = grow(scr.devLoad, P)
	load := &scr.load
	s0 := L
	for iter := 0; ; iter++ {
		if iter > len(assigned)+2 {
			return 0, fmt.Errorf("intra-node partitioning did not converge")
		}
		copy(scr.devLoad, interShare)
		load.init(scr.devLoad, devSpeed)
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
					// sequence on the round-robin device.
					d := rr % P
					local[d] = append(local[d], s)
					load.add(d, s.Len)
					rr++
					continue
				}
				// A ring's lock-stepped rounds run at its slowest member's
				// pace, so query-chunk shares are weighted by speed:
				// stragglers hold smaller chunks and the rounds stay
				// time-balanced.
				devs := make([]int, k)
				for i := range devs {
					devs[i] = first + (rr+i)%P
				}
				ring := seq.Ring{Seq: s, Zone: seq.ZoneIntra, Ranks: devs, Weights: ringWeights(speed, devs)}
				scr.share = ring.TokensPerRankInto(scr.share)
				for i, r := range devs {
					load.add(r-first, scr.share[i])
				}
				rr += k
				rings = append(rings, ring)
			}
		}
		scr.rings = rings
		retry := false
		for _, s := range z0 {
			idx := load.argmin()
			if s.Len+load.tok[idx] > L {
				s0 = z0[0].Len
				retry = true
				break
			}
			local[idx] = append(local[idx], s)
			load.add(idx, s.Len)
		}
		if !retry {
			return s0, nil
		}
	}
}

// ringWeights returns a ring's query-chunk weights: its members' speeds,
// or nil (the paper's even 2G-chunk split) when they share one speed.
func ringWeights(speed []float64, ranks []int) []float64 {
	for _, r := range ranks[1:] {
		if speed[r] != speed[ranks[0]] {
			out := make([]float64, len(ranks))
			for i, r := range ranks {
				out[i] = speed[r]
			}
			return out
		}
	}
	return nil
}

// loadVec is the greedy rules' view of a set of nodes or devices: token
// loads, which capacity is checked against, and time loads (tokens ÷
// speed), which placement compares, refreshed as each placement lands.
// At uniform speed the time loads equal the token loads, so the greedy
// choices are the paper's. From treeMin slots on (Alg. 1 over many
// nodes, the patch path over every rank) a tournament tree keeps the
// argmin current in O(log n) per placement instead of a rescan per
// sequence; a node's few devices are scanned.
type loadVec struct {
	tok   []int
	time  []float64
	speed []float64
	win   []int // win[j] is the least-loaded slot under tree node j, slot i is leaf n+i; empty when scanning
	pick  []int // least's selection scratch
}

// treeMin is the fewest slots given a tree. Timed per greedy placement
// on a 2-vCPU x86-64 VM, a scan of the time loads beats the tree's
// log-depth updates by 20–100% at 2–8 slots, the two break even at
// 12–14, and the tree wins from 16.
const treeMin = 16

// init points the vector at token loads tok (owned by the caller and
// updated in place by add) under per-slot speeds.
func (v *loadVec) init(tok []int, speed []float64) {
	n := len(tok)
	v.tok, v.speed = tok, speed
	v.time = grow(v.time, n)
	for i, t := range tok {
		v.time[i] = float64(t) / speed[i]
	}
	v.win = v.win[:0]
	if n < treeMin {
		return
	}
	v.win = grow(v.win, 2*n)
	for i := range tok {
		v.win[n+i] = i
	}
	for j := n - 1; j >= 1; j-- {
		v.win[j] = v.less(v.win[2*j], v.win[2*j+1])
	}
}

// less returns whichever of slots a and b has the smaller time load, ties
// to the lower index.
func (v *loadVec) less(a, b int) int {
	if v.time[b] < v.time[a] || (v.time[b] == v.time[a] && b < a) {
		return b
	}
	return a
}

// add places n tokens on slot i.
func (v *loadVec) add(i, n int) {
	v.tok[i] += n
	v.time[i] = float64(v.tok[i]) / v.speed[i]
	if len(v.win) == 0 {
		return
	}
	for j := (len(v.tok) + i) / 2; j >= 1; j /= 2 {
		v.win[j] = v.less(v.win[2*j], v.win[2*j+1])
	}
}

// argmin is the greedy least-loaded choice: the smallest time load, ties
// to the lowest index.
func (v *loadVec) argmin() int {
	if len(v.win) > 0 {
		return v.win[1]
	}
	t := v.time
	best := 0
	for i := 1; i < len(t); i++ {
		if t[i] < t[best] {
			best = i
		}
	}
	return best
}

// least returns the indices of the k smallest time loads in
// increasing-load order. Equal loads go to whichever index the selection
// swaps reach first. The result is scratch, valid until the next call.
func (v *loadVec) least(k int) []int {
	if k == 1 {
		// Early exit: the common single-chunk case needs only argmin, not
		// a k-selection pass.
		v.pick = append(v.pick[:0], v.argmin())
		return v.pick
	}
	n := len(v.time)
	v.pick = grow(v.pick, n)
	idx := v.pick
	for i := range idx {
		idx[i] = i
	}
	// Selection sort of the first k: there are only #nodes slots.
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if v.time[idx[j]] < v.time[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// grow returns s resized to n, reusing capacity (contents unspecified).
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
