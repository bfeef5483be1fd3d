package collective

import (
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/sim"
)

func fab(t *testing.T, spec cluster.Spec, nodes int) (*sim.Engine, *cluster.Fabric) {
	t.Helper()
	e := sim.NewEngine()
	return e, cluster.NewFabric(e, cluster.MustNew(spec, nodes))
}

func TestAllGatherSingleRankFree(t *testing.T) {
	one := cluster.Spec{
		Name: "one", GPUsPerNode: 1, NICsPerNode: 1, NICBandwidth: 1e9,
		IntraBandwidth: 1e9, GPUPeakFlops: 1, GPUMemory: 1,
	}
	e1 := sim.NewEngine()
	f1 := cluster.NewFabric(e1, cluster.MustNew(one, 1))
	AllGather(f1, "ag", 1e9)
	mk, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 {
		t.Fatalf("single-rank all-gather should be free, got %v", mk)
	}
}

func TestAllGatherZeroBytesFree(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 2)
	AllGather(f, "ag", 0)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 {
		t.Fatal("zero-byte collective should be free")
	}
}

func TestAllGatherUsesAllNICs(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 2)
	AllGather(f, "ag", 1e8)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for nic := range f.NICSend {
		if f.NICSend[nic].BusyTime == 0 || f.NICRecv[nic].BusyTime == 0 {
			t.Fatalf("NIC %d idle during all-gather", nic)
		}
	}
}

func TestAllGatherBandwidthModel(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 2)
	per := 1e8
	AllGather(f, "ag", per)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := per * 16
	// Cross-node share at efficiency Eff over 4 NICs per node.
	wantInter := total * 0.5 / (4 * f.C.NICBandwidth * Eff)
	wantIntra := total * 15 / 16 / 0.8 / f.C.IntraBandwidth
	want := wantInter
	if wantIntra > want {
		want = wantIntra
	}
	if mk < want*0.9 || mk > want*1.5 {
		t.Fatalf("all-gather time %v, expected ~%v", mk, want)
	}
}

func TestAllToAllVSkipsDegenerate(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 1)
	AllToAllV(f, "a2a", []Transfer{
		{From: 0, To: 0, Bytes: 1e9}, // self
		{From: 1, To: 2, Bytes: 0},   // empty
	})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 {
		t.Fatal("degenerate transfers should be free")
	}
}

func TestAllToAllVParallelism(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 1)
	var ts []Transfer
	for i := 0; i < 4; i++ {
		ts = append(ts, Transfer{From: 2 * i, To: 2*i + 1, Bytes: f.C.IntraBandwidth / 10})
	}
	AllToAllV(f, "a2a", ts)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk > 0.11 {
		t.Fatalf("disjoint transfers should overlap: %v", mk)
	}
}
