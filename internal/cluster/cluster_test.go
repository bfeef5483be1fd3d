package cluster

import (
	"testing"
	"testing/quick"

	"zeppelin/internal/sim"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "a", "b", "c"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("D"); err == nil {
		t.Fatal("expected error for unknown cluster")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(ClusterA, 0); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	bad := ClusterA
	bad.NICsPerNode = 3 // 8 % 3 != 0
	if _, err := New(bad, 1); err == nil {
		t.Fatal("expected error for indivisible GPU/NIC ratio")
	}
	if _, err := New(Spec{Name: "x"}, 1); err == nil {
		t.Fatal("expected error for empty spec")
	}
}

func TestTopologyIndexing(t *testing.T) {
	c := MustNew(ClusterA, 2) // 16 GPUs, 4 NICs/node shared 2:1
	if c.World() != 16 {
		t.Fatalf("World = %d", c.World())
	}
	if c.GPUsPerNIC() != 2 {
		t.Fatalf("GPUsPerNIC = %d, want 2 on Cluster A", c.GPUsPerNIC())
	}
	if c.NodeOf(7) != 0 || c.NodeOf(8) != 1 {
		t.Fatal("NodeOf wrong at node boundary")
	}
	if c.LocalRank(9) != 1 {
		t.Fatalf("LocalRank(9) = %d", c.LocalRank(9))
	}
	// On Cluster A, GPUs 0 and 1 share NIC 0; GPUs 8,9 share NIC 4.
	if c.NICOf(0) != 0 || c.NICOf(1) != 0 || c.NICOf(2) != 1 {
		t.Fatalf("NICOf node0 = %d %d %d", c.NICOf(0), c.NICOf(1), c.NICOf(2))
	}
	if c.NICOf(8) != 4 || c.NICOf(9) != 4 {
		t.Fatalf("NICOf node1 = %d %d", c.NICOf(8), c.NICOf(9))
	}
	if !c.SameNode(0, 7) || c.SameNode(7, 8) {
		t.Fatal("SameNode wrong")
	}
}

func TestClusterCOneToOneNIC(t *testing.T) {
	c := MustNew(ClusterC, 1)
	if c.GPUsPerNIC() != 1 {
		t.Fatalf("Cluster C should map GPUs to NICs 1:1")
	}
	for r := 0; r < 8; r++ {
		if c.NICOf(r) != r {
			t.Fatalf("NICOf(%d) = %d", r, c.NICOf(r))
		}
	}
}

func TestFabricIntraTransferTime(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(ClusterA, 1)
	f := NewFabric(e, c)
	done := f.Send("kv", 0, 1, 400e9) // 400 GB at 400 GB/s = 1 s
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + c.IntraLatency
	if !sim.AlmostEqual(mk, want) {
		t.Fatalf("makespan = %v, want %v", mk, want)
	}
	if done.End != mk {
		t.Fatal("done barrier should be the last event")
	}
}

func TestFabricInterTransferTime(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(ClusterA, 2)
	f := NewFabric(e, c)
	f.Send("kv", 0, 8, 25e9) // 25 GB at 25 GB/s = 1 s
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + c.InterLatency
	if !sim.AlmostEqual(mk, want) {
		t.Fatalf("makespan = %v, want %v", mk, want)
	}
}

func TestFabricSelfSendFree(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(ClusterA, 1)
	f := NewFabric(e, c)
	f.Send("self", 3, 3, 1e12)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 {
		t.Fatalf("self-send should be free, makespan = %v", mk)
	}
}

// Two GPUs sharing one NIC on Cluster A must serialize their sends; on
// Cluster C (1:1 NICs) the same sends overlap. This is the §5.1 effect
// that makes TP=2 speedups larger on Cluster A.
func TestSharedNICSerializes(t *testing.T) {
	run := func(spec Spec) sim.Time {
		e := sim.NewEngine()
		c := MustNew(spec, 2)
		f := NewFabric(e, c)
		bytes := spec.NICBandwidth // exactly 1 second each
		f.Send("a", 0, c.GPUsPerNode, bytes)
		f.Send("b", 1, c.GPUsPerNode+1, bytes)
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return mk
	}
	a := run(ClusterA)
	cc := run(ClusterC)
	if a < 1.9 {
		t.Fatalf("Cluster A shared-NIC sends should serialize (~2s), got %v", a)
	}
	if cc > 1.1 {
		t.Fatalf("Cluster C 1:1 NIC sends should overlap (~1s), got %v", cc)
	}
}

func TestSendViaUsesChosenNIC(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(ClusterA, 2)
	f := NewFabric(e, c)
	// Route rank0's flow through NIC 3 (normally serves GPUs 6,7).
	f.SendVia("routed", 0, 8, 3, 4, c.NICBandwidth)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sim.AlmostEqual(mk, 1+c.InterLatency) {
		t.Fatalf("makespan = %v", mk)
	}
	if f.NICSend[3].BusyTime == 0 {
		t.Fatal("NIC 3 tx should have been used")
	}
	if f.NICSend[0].BusyTime != 0 {
		t.Fatal("NIC 0 tx should be idle when flow is routed via NIC 3")
	}
}

func TestSendViaPanicsIntraNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for intra-node SendVia")
		}
	}()
	e := sim.NewEngine()
	c := MustNew(ClusterA, 1)
	f := NewFabric(e, c)
	f.SendVia("bad", 0, 1, 0, 0, 10)
}

func TestComputeTaskLaunchLatency(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(ClusterA, 1)
	f := NewFabric(e, c)
	f.ComputeTask("k", 0, 0.001)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sim.AlmostEqual(mk, 0.001+c.LaunchLatency) {
		t.Fatalf("makespan = %v", mk)
	}
}

// Property: NICOf and NodeOf are consistent for any rank in any cluster.
func TestPropertyIndexConsistency(t *testing.T) {
	specs := []Spec{ClusterA, ClusterB, ClusterC}
	f := func(nodeSeed, rankSeed uint8) bool {
		spec := specs[int(nodeSeed)%len(specs)]
		nodes := 1 + int(nodeSeed)%16
		c := MustNew(spec, nodes)
		rank := int(rankSeed) % c.World()
		nic := c.NICOf(rank)
		// NIC must be on the same node as the rank.
		if nic/c.NICsPerNode != c.NodeOf(rank) {
			return false
		}
		// All GPUs of a NIC group map to the same NIC.
		base := rank - c.LocalRank(rank)%c.GPUsPerNIC()
		_ = base
		return nic >= 0 && nic < c.Nodes*c.NICsPerNode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a pipeline of sends over disjoint rank pairs completes in
// roughly one transfer time (they must not interfere).
func TestDisjointIntraSendsOverlap(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(ClusterB, 1)
	f := NewFabric(e, c)
	for i := 0; i < 4; i++ {
		f.Send("p", 2*i, 2*i+1, c.IntraBandwidth/10) // 0.1 s each
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk > 0.11 {
		t.Fatalf("disjoint intra-node sends should fully overlap, makespan = %v", mk)
	}
}
