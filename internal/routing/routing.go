// Package routing implements Zeppelin's communication routing layer
// (§3.3): it disaggregates logical inter-node transfers from fixed GPU–NIC
// affinity by decomposing each cross-node send into three steps —
// intra-node dispatch to send-proxy ranks, multi-NIC inter-node transfer,
// and intra-node combine at the destination. Every GPU of a node is a
// proxy, and send proxy i pairs with receive proxy i (the paper's x1 =
// x2). With a ~10× bandwidth gap between NVSwitch and a single NIC,
// spreading one flow across all of a node's NICs converts the per-round
// ring-attention bottleneck from one NIC's bandwidth to the node's
// aggregate bandwidth (Eq. 1).
package routing

import (
	"zeppelin/internal/cluster"
	"zeppelin/internal/sim"
)

// RoutedInterEff derates the multi-NIC transfer step of routed sends: the
// routing layer's copy kernels contend for SMs with attention compute, so
// inter-node transfers stall between communication kernels — the
// "bubbles" of Fig. 12b, where the measured per-round communication drops
// from 2.18 ms to ~1.3 ms rather than the ideal NIC-count factor.
const RoutedInterEff = 0.5

// Router emits transfer tasks onto a fabric. With Enabled=false it falls
// back to direct sends (the TE CP baseline behaviour), which makes the
// router the single switch for the Fig. 11 "w/ Routing" ablation.
type Router struct {
	F *cluster.Fabric
	// Enabled selects three-step routing for cross-node transfers.
	Enabled bool
}

// New builds a router over a fabric.
func New(f *cluster.Fabric, enabled bool) *Router {
	return &Router{F: f, Enabled: enabled}
}

// Transfer moves bytes from src to dst rank, returning the task that
// completes when all data has arrived. Intra-node and self transfers are
// always sent directly; cross-node transfers are routed in three steps
// when routing is enabled. Every task the transfer creates carries label.
func (r *Router) Transfer(label string, src, dst int, bytes float64, deps ...*sim.Task) *sim.Task {
	c := r.F.C
	if !r.Enabled || src == dst || c.SameNode(src, dst) || bytes <= 0 {
		return r.F.Send(label, src, dst, bytes, deps...)
	}
	// Proxy i is the node's i-th GPU; send proxy i pairs with receive
	// proxy i.
	x := c.GPUsPerNode
	srcBase := c.NodeOf(src) * c.GPUsPerNode
	dstBase := c.NodeOf(dst) * c.GPUsPerNode

	chunk := bytes / float64(x)
	var buf [8]*sim.Task // one per proxy; enough for every preset node
	arrivals := buf[:0]
	for i := 0; i < x; i++ {
		sp, rp := srcBase+i, dstBase+i // send and receive proxy

		// Step 1: intra-node dispatch src -> send proxy. The source's own
		// chunk needs no dispatch.
		var dispatched *sim.Task
		if sp == src {
			dispatched = r.F.E.Barrier(label, src).After(deps...)
		} else {
			dispatched = r.F.Send(label, src, sp, chunk, deps...)
		}

		// Step 2: inter-node transfer over the proxy pair's NICs, derated
		// for SM-contention stalls (Fig. 12b).
		xfer := r.F.SendVia(label, sp, rp, c.NICOf(sp), c.NICOf(rp), chunk/RoutedInterEff, dispatched)

		// Step 3: intra-node combine receive proxy -> dst.
		if rp == dst {
			arrivals = append(arrivals, xfer)
		} else {
			arrivals = append(arrivals, r.F.Send(label, rp, dst, chunk, xfer))
		}
	}
	return r.F.E.Barrier(label, dst).After(arrivals...)
}

// Eq1Cost evaluates the paper's Eq. 1: the analytic cost of a routed
// transfer of n bytes with x1 send proxies and x2 receive proxies, given
// inverse bandwidths (seconds per byte). Used for tests and the ablation
// analysis; the simulator computes the same structurally.
func Eq1Cost(n float64, x1, x2 int, bIntra, bInter float64) float64 {
	if x1 < 1 || x2 < 1 {
		panic("routing: proxy counts must be >= 1")
	}
	dispatch := bIntra * n * float64(x1-1) / float64(x1)
	inter := bInter * n / float64(min(x1, x2))
	combine := bIntra * n * float64(x2-1) / float64(x2)
	return dispatch + inter + combine
}

// DirectCost is the unrouted baseline cost bInter·n of Eq. 1's preamble.
func DirectCost(n float64, bInter float64) float64 { return bInter * n }
