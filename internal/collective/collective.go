// Package collective implements the communication collectives the
// simulated systems call (the NCCL layer): the multi-channel ring
// all-gather of the LLaMA CP baseline, the bandwidth-level all-to-all of
// MoE expert parallelism and Ulysses sequence parallelism, and the
// dynamic-shape alltoallv of the §3.4 remapping layer — all emitted as
// task graphs on a cluster fabric so they contend for the same NVSwitch
// ports and NICs as everything else in the simulation.
//
// The multi-channel ring model mirrors how NCCL extracts a node's
// aggregate NIC bandwidth: the payload splits across channels, one per
// NIC, and each channel's ring crosses nodes through its own NIC. Eff
// derates achievable bus bandwidth, matching measured collective
// performance on RoCE fabrics (~45–65% of line rate).
//
// Every task a collective emits carries the label its caller passes,
// which names the calling stage (see internal/sim).
package collective

import (
	"zeppelin/internal/cluster"
	"zeppelin/internal/sim"
)

// Eff is the fraction of aggregate NIC bandwidth an optimized NCCL
// all-gather achieves in practice on RoCE fabrics (bus-bandwidth
// measurements typically land between 0.45 and 0.65). Calibrated so that
// LLaMA CP's speedup over TE CP matches the paper's 1.45–1.65× band.
const Eff = 0.55

// AllGather emits an all-gather of bytesPerRank from every rank to every
// rank and returns the completion barrier. Modeled at the bandwidth
// level: each node's NICs carry the (N−1)/N cross-node share, one channel
// per NIC, and every rank ingests the full remote volume over its
// NVSwitch port. Latency per channel hop is included via the fabric's
// link latencies.
func AllGather(f *cluster.Fabric, label string, bytesPerRank float64, deps ...*sim.Task) *sim.Task {
	c := f.C
	world := c.World()
	done := f.E.Barrier(label, 0)
	done.After(deps...)
	if world <= 1 || bytesPerRank <= 0 {
		return done
	}
	total := bytesPerRank * float64(world)
	if c.Nodes > 1 {
		nodeShare := total * float64(c.Nodes-1) / float64(c.Nodes) / Eff
		perNIC := nodeShare / float64(c.NICsPerNode)
		for n := 0; n < c.Nodes; n++ {
			anchor := n * c.GPUsPerNode // the node's first rank
			for k := 0; k < c.NICsPerNode; k++ {
				nic := n*c.NICsPerNode + k
				rx := f.E.Transfer(label, sim.KindInterComm, anchor, f.NICRecv[nic], perNIC)
				rx.After(deps...)
				tx := f.E.Transfer(label, sim.KindInterComm, anchor, f.NICSend[nic], perNIC)
				tx.After(deps...)
				done.After(rx, tx)
			}
		}
	}
	// NVSwitch collectives run close to peak; derate mildly.
	perRank := total * float64(world-1) / float64(world) / 0.8
	for rank := 0; rank < world; rank++ {
		rx := f.E.Transfer(label, sim.KindIntraComm, rank, f.IntraRecv[rank], perRank)
		rx.After(deps...)
		done.After(rx)
	}
	return done
}

// AllToAll emits a bandwidth-level all-to-all: rank i exchanges
// bytesPerRank[i] with the rest of the world. The cross-node share
// (N−1)/N rides the rank's own NIC in both directions and the rest
// leaves through its NVSwitch port. A rank with no bytes sends nothing.
// It returns the completion barrier.
func AllToAll(f *cluster.Fabric, label string, bytesPerRank []float64, deps ...*sim.Task) *sim.Task {
	c := f.C
	done := f.E.Barrier(label, 0)
	done.After(deps...)
	crossFrac := 0.0
	if c.Nodes > 1 {
		crossFrac = float64(c.Nodes-1) / float64(c.Nodes)
	}
	for rank, vol := range bytesPerRank {
		if vol <= 0 {
			continue
		}
		if crossFrac > 0 {
			nic := c.NICOf(rank)
			tx := f.E.Transfer(label, sim.KindInterComm, rank, f.NICSend[nic], vol*crossFrac)
			tx.After(deps...)
			rx := f.E.Transfer(label, sim.KindInterComm, rank, f.NICRecv[nic], vol*crossFrac)
			rx.After(deps...)
			done.After(tx, rx)
		}
		intra := f.E.Transfer(label, sim.KindIntraComm, rank, f.IntraSend[rank], vol*(1-crossFrac))
		intra.After(deps...)
		done.After(intra)
	}
	return done
}

// Transfer is one point-to-point element of an alltoallv.
type Transfer struct {
	From, To int
	Bytes    float64
}

// AllToAllV emits a dynamic-shape all-to-all: every listed transfer is a
// point-to-point send; the barrier completes when all have arrived. This
// is the primitive the remapping layer executes (§4 "dynamic-shape
// alltoallv primitive that supports both forward and backward passes").
func AllToAllV(f *cluster.Fabric, label string, transfers []Transfer, deps ...*sim.Task) *sim.Task {
	done := f.E.Barrier(label, 0)
	done.After(deps...)
	for _, tr := range transfers {
		if tr.Bytes <= 0 || tr.From == tr.To {
			continue
		}
		done.After(f.Send(label, tr.From, tr.To, tr.Bytes, deps...))
	}
	return done
}
