// Package cluster models the GPU cluster topologies used in the paper's
// evaluation (§5): nodes of GPUs joined by NVSwitch, with RDMA NICs whose
// GPU affinity varies per cluster. It also provides a Fabric that maps
// transfers onto discrete-event simulator resources, so schedulers above
// it see realistic contention on shared NICs and NVSwitch ports.
package cluster

import (
	"fmt"

	"zeppelin/internal/sim"
)

// Bandwidths are bytes/second; Gbps NIC figures from the paper are
// converted at 1 Gb/s = 0.125 GB/s.
const (
	gb  = 1e9         // bytes
	gbs = 0.125 * 1e9 // 1 Gbit/s in bytes/s
)

// Spec describes a homogeneous node type.
type Spec struct {
	Name        string
	GPUsPerNode int
	NICsPerNode int
	// NICBandwidth is the per-NIC unidirectional bandwidth in bytes/s.
	NICBandwidth float64
	// IntraBandwidth is the per-GPU NVSwitch bandwidth in bytes/s.
	IntraBandwidth float64
	// GPUPeakFlops is peak dense BF16 throughput in FLOP/s.
	GPUPeakFlops float64
	// GPUMemory is usable HBM per GPU in bytes (activations + weights).
	GPUMemory float64
	// IntraLatency / InterLatency are per-message setup costs in seconds.
	IntraLatency float64
	InterLatency float64
	// LaunchLatency is the per-kernel launch overhead on compute streams.
	LaunchLatency float64
}

// The three clusters from §5 Experimental Setup.
var (
	// ClusterA: 8×A800-80G, NVSwitch 400 GB/s, 4 RoCE NICs of 200 Gb/s,
	// each NIC shared by 2 GPUs.
	ClusterA = Spec{
		Name:           "A",
		GPUsPerNode:    8,
		NICsPerNode:    4,
		NICBandwidth:   200 * gbs,
		IntraBandwidth: 400 * gb,
		GPUPeakFlops:   312e12,
		GPUMemory:      80 * gb,
		IntraLatency:   5e-6,
		InterLatency:   15e-6,
		LaunchLatency:  20e-6,
	}
	// ClusterB: 8×H800, 8 RoCE NICs (one per GPU).
	ClusterB = Spec{
		Name:           "B",
		GPUsPerNode:    8,
		NICsPerNode:    8,
		NICBandwidth:   200 * gbs,
		IntraBandwidth: 400 * gb,
		GPUPeakFlops:   990e12,
		GPUMemory:      80 * gb,
		IntraLatency:   5e-6,
		InterLatency:   15e-6,
		LaunchLatency:  20e-6,
	}
	// ClusterC: 8×H200, 8 CX7 NICs of 400 Gb/s (one per GPU).
	ClusterC = Spec{
		Name:           "C",
		GPUsPerNode:    8,
		NICsPerNode:    8,
		NICBandwidth:   400 * gbs,
		IntraBandwidth: 900 * gb,
		GPUPeakFlops:   990e12,
		GPUMemory:      141 * gb,
		IntraLatency:   5e-6,
		InterLatency:   15e-6,
		LaunchLatency:  20e-6,
	}
)

// ByName returns a cluster spec by its paper name ("A", "B", "C").
func ByName(name string) (Spec, error) {
	switch name {
	case "A", "a":
		return ClusterA, nil
	case "B", "b":
		return ClusterB, nil
	case "C", "c":
		return ClusterC, nil
	}
	return Spec{}, fmt.Errorf("cluster: unknown cluster %q", name)
}

// Cluster is a concrete deployment: Nodes instances of a Spec.
type Cluster struct {
	Spec
	Nodes int
}

// New validates and builds a cluster of n nodes.
func New(spec Spec, nodes int) (*Cluster, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: nodes must be positive, got %d", nodes)
	}
	if spec.GPUsPerNode <= 0 || spec.NICsPerNode <= 0 {
		return nil, fmt.Errorf("cluster: spec %q has no GPUs or NICs", spec.Name)
	}
	if spec.GPUsPerNode%spec.NICsPerNode != 0 {
		return nil, fmt.Errorf("cluster: %d GPUs not divisible by %d NICs", spec.GPUsPerNode, spec.NICsPerNode)
	}
	return &Cluster{Spec: spec, Nodes: nodes}, nil
}

// MustNew is New for known-valid configurations (presets in tests/benches).
func MustNew(spec Spec, nodes int) *Cluster {
	c, err := New(spec, nodes)
	if err != nil {
		panic(err)
	}
	return c
}

// World returns the total GPU count.
func (c *Cluster) World() int { return c.Nodes * c.GPUsPerNode }

// NodeOf returns the node index of a global rank.
func (c *Cluster) NodeOf(rank int) int { return rank / c.GPUsPerNode }

// LocalRank returns the within-node index of a global rank.
func (c *Cluster) LocalRank(rank int) int { return rank % c.GPUsPerNode }

// GPUsPerNIC returns how many GPUs share one NIC (2 on Cluster A, 1 on B/C).
func (c *Cluster) GPUsPerNIC() int { return c.GPUsPerNode / c.NICsPerNode }

// NICOf returns the global NIC index serving a global rank.
func (c *Cluster) NICOf(rank int) int {
	return c.NodeOf(rank)*c.NICsPerNode + c.LocalRank(rank)/c.GPUsPerNIC()
}

// SameNode reports whether two ranks share a node.
func (c *Cluster) SameNode(a, b int) bool { return c.NodeOf(a) == c.NodeOf(b) }

// Fabric instantiates the cluster's links and compute streams as simulator
// resources and provides transfer primitives with correct contention:
//
//   - each GPU has one compute stream (kernels serialize; the paper's
//     engine uses a dedicated computation stream),
//   - each GPU has NVSwitch egress/ingress ports at IntraBandwidth,
//   - each NIC has independent send and receive engines at NICBandwidth
//     (full duplex; ring attention's unidirectional use of a NIC leaves
//     the other direction idle, which the routing layer exploits).
type Fabric struct {
	C *Cluster
	E *sim.Engine

	Compute   []*sim.Resource // per rank
	IntraSend []*sim.Resource // per rank, NVSwitch egress
	IntraRecv []*sim.Resource // per rank, NVSwitch ingress
	NICSend   []*sim.Resource // per global NIC
	NICRecv   []*sim.Resource // per global NIC
}

// NewFabric builds the resources for a cluster on an engine. Resource
// names are per kind ("gpu/compute", "nic/tx"); the slices above index
// them by rank or NIC.
func NewFabric(e *sim.Engine, c *Cluster) *Fabric {
	f := &Fabric{C: c, E: e}
	world := c.World()
	for r := 0; r < world; r++ {
		comp := e.NewResource("gpu/compute", 0)
		comp.Latency = c.LaunchLatency
		f.Compute = append(f.Compute, comp)

		is := e.NewResource("gpu/nvs-out", c.IntraBandwidth)
		is.Latency = c.IntraLatency
		ir := e.NewResource("gpu/nvs-in", c.IntraBandwidth)
		ir.Latency = c.IntraLatency
		f.IntraSend = append(f.IntraSend, is)
		f.IntraRecv = append(f.IntraRecv, ir)
	}
	for n := 0; n < c.Nodes*c.NICsPerNode; n++ {
		s := e.NewResource("nic/tx", c.NICBandwidth)
		s.Latency = c.InterLatency
		r := e.NewResource("nic/rx", c.NICBandwidth)
		r.Latency = c.InterLatency
		f.NICSend = append(f.NICSend, s)
		f.NICRecv = append(f.NICRecv, r)
	}
	return f
}

// Send models a point-to-point transfer of bytes from src to dst rank and
// returns a task that completes when the data has fully arrived. The
// transfer charges both the egress and ingress sides of the bottleneck
// link (send and receive run concurrently when uncontended, so an
// uncontended transfer costs bytes/bandwidth once, not twice). A transfer
// to self completes immediately after deps. Every task the transfer
// creates carries label.
func (f *Fabric) Send(label string, src, dst int, bytes float64, deps ...*sim.Task) *sim.Task {
	if src == dst || bytes <= 0 {
		return f.E.Barrier(label, dst).After(deps...)
	}
	if !f.C.SameNode(src, dst) {
		return f.SendVia(label, src, dst, f.C.NICOf(src), f.C.NICOf(dst), bytes, deps...)
	}
	send := f.E.Transfer(label, sim.KindIntraComm, src, f.IntraSend[src], bytes)
	send.After(deps...)
	recv := f.E.Transfer(label, sim.KindIntraComm, dst, f.IntraRecv[dst], bytes)
	recv.After(deps...)
	return f.E.Barrier(label, dst).After(send, recv)
}

// SendVia is a cross-node Send through a specific NIC index on each
// side, regardless of GPU affinity: Send passes the ranks' own NICs, and
// the routing layer spreads one logical flow over all NICs of a node.
// Panics if src and dst share a node (routing never re-routes intra-node
// traffic).
func (f *Fabric) SendVia(label string, src, dst, srcNIC, dstNIC int, bytes float64, deps ...*sim.Task) *sim.Task {
	if f.C.SameNode(src, dst) {
		panic("cluster: SendVia requires cross-node endpoints")
	}
	if bytes <= 0 {
		return f.E.Barrier(label, dst).After(deps...)
	}
	send := f.E.Transfer(label, sim.KindInterComm, src, f.NICSend[srcNIC], bytes)
	send.After(deps...)
	recv := f.E.Transfer(label, sim.KindInterComm, dst, f.NICRecv[dstNIC], bytes)
	recv.After(deps...)
	return f.E.Barrier(label, dst).After(send, recv)
}

// ComputeTask schedules a fixed-duration kernel on a rank's compute stream.
func (f *Fabric) ComputeTask(label string, rank int, d sim.Time, deps ...*sim.Task) *sim.Task {
	t := f.E.Compute(label, rank, f.Compute[rank], d)
	t.After(deps...)
	return t
}
