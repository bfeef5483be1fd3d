// Package collective implements the two communication collectives the
// simulated systems call (the NCCL layer): the multi-channel ring
// all-gather of the LLaMA CP baseline and the dynamic-shape alltoallv of
// the §3.4 remapping layer — both emitted as task graphs on a cluster
// fabric so they contend for the same NVSwitch ports and NICs as
// everything else in the simulation.
//
// The multi-channel ring model mirrors how NCCL extracts a node's
// aggregate NIC bandwidth: the payload splits across channels, and each
// channel's ring crosses nodes through a different NIC. An efficiency
// factor derates achievable bus bandwidth, matching measured collective
// performance on RoCE fabrics (~45–65% of line rate).
//
// Every task a collective emits carries the label its caller passes,
// which names the calling stage (see internal/sim).
package collective

import (
	"zeppelin/internal/cluster"
	"zeppelin/internal/sim"
)

// DefaultEff is the default fraction of line rate a collective achieves.
const DefaultEff = 0.55

// Config tunes collective emission.
type Config struct {
	// Channels is the number of parallel rings; 0 means one per NIC.
	Channels int
	// Eff derates link bandwidth (0 < Eff <= 1); 0 means DefaultEff.
	Eff float64
}

func (c Config) channels(f *cluster.Fabric) int {
	if c.Channels > 0 {
		return c.Channels
	}
	return f.C.NICsPerNode
}

func (c Config) eff() float64 {
	if c.Eff > 0 && c.Eff <= 1 {
		return c.Eff
	}
	return DefaultEff
}

// AllGather emits an all-gather of bytesPerRank from every rank to every
// rank and returns the completion barrier. Modeled at the bandwidth
// level: each node's NICs carry the (N−1)/N cross-node share split over
// the channels, and every rank ingests the full remote volume over its
// NVSwitch port. Latency per channel hop is included via the fabric's
// link latencies.
func AllGather(f *cluster.Fabric, cfg Config, label string, bytesPerRank float64, deps ...*sim.Task) *sim.Task {
	c := f.C
	world := c.World()
	done := f.E.Barrier(label, 0)
	done.After(deps...)
	if world <= 1 || bytesPerRank <= 0 {
		return done
	}
	eff := cfg.eff()
	total := bytesPerRank * float64(world)
	if c.Nodes > 1 {
		ch := cfg.channels(f)
		nodeShare := total * float64(c.Nodes-1) / float64(c.Nodes) / eff
		perNIC := nodeShare / float64(ch)
		for n := 0; n < c.Nodes; n++ {
			anchor := n * c.GPUsPerNode // the node's first rank
			for k := 0; k < ch; k++ {
				nic := n*c.NICsPerNode + k%c.NICsPerNode
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
