package routing

import (
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/sim"
)

func fabric(t *testing.T, spec cluster.Spec, nodes int) (*sim.Engine, *cluster.Fabric) {
	t.Helper()
	e := sim.NewEngine()
	return e, cluster.NewFabric(e, cluster.MustNew(spec, nodes))
}

func TestDisabledFallsBackToDirect(t *testing.T) {
	e, f := fabric(t, cluster.ClusterA, 2)
	r := New(f, false)
	bytes := f.C.NICBandwidth // 1 second direct
	r.Transfer("kv", 0, 8, bytes)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk < 0.99 {
		t.Fatalf("direct transfer should take ~1s, got %v", mk)
	}
	// Only NIC 0 (GPU 0's) and NIC 4 (GPU 8's) should be active.
	if f.NICSend[1].BusyTime != 0 {
		t.Fatal("direct transfer must not use other NICs")
	}
}

func TestRoutedUsesAllNICs(t *testing.T) {
	e, f := fabric(t, cluster.ClusterA, 2)
	r := New(f, true)
	bytes := f.C.NICBandwidth // direct would take 1 second
	r.Transfer("kv", 0, 8, bytes)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With 4 NICs the inter phase takes ~0.25s/RoutedInterEff = 0.5s;
	// dispatch/combine add ~(7/8)·n/400GB/s each. Expect below ~0.7 of
	// the direct time (the paper's measured 2.18ms -> 1.3ms is ~0.6x).
	if mk > 0.7 {
		t.Fatalf("routed transfer should clearly beat 1s direct, got %v s", mk)
	}
	for nic := 0; nic < 4; nic++ {
		if f.NICSend[nic].BusyTime == 0 {
			t.Fatalf("NIC %d tx idle; routing should engage all NICs", nic)
		}
		if f.NICRecv[4+nic].BusyTime == 0 {
			t.Fatalf("NIC %d rx idle on destination node", 4+nic)
		}
	}
}

func TestRoutedMatchesEq1Shape(t *testing.T) {
	e, f := fabric(t, cluster.ClusterA, 2)
	r := New(f, true)
	n := 8 * f.C.NICBandwidth // large transfer, latency negligible
	r.Transfer("kv", 0, 8, n)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	bIntra := 1 / f.C.IntraBandwidth
	// 8 proxies over 4 shared NICs at RoutedInterEff: effective inter
	// step carries n/4 per NIC at derated bandwidth.
	bInterEff := 1 / (f.C.NICBandwidth * RoutedInterEff)
	want := Eq1Cost(n, 4, 4, bIntra, bInterEff)
	if mk < 0.5*want || mk > 1.5*want {
		t.Fatalf("routed time %v not within 50%% of Eq.1 estimate %v", mk, want)
	}
}

func TestIntraNodeNeverRouted(t *testing.T) {
	e, f := fabric(t, cluster.ClusterA, 1)
	r := New(f, true)
	r.Transfer("kv", 0, 1, 1e9)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range f.NICSend {
		if f.NICSend[i].BusyTime != 0 {
			t.Fatal("intra-node transfer must not touch NICs")
		}
	}
}

func TestSelfAndZeroTransfersFree(t *testing.T) {
	e, f := fabric(t, cluster.ClusterA, 2)
	r := New(f, true)
	r.Transfer("a", 3, 3, 1e9)
	r.Transfer("b", 0, 8, 0)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 {
		t.Fatalf("self/zero transfers should be free, makespan %v", mk)
	}
}

func TestClusterCRoutingScalesWithNICs(t *testing.T) {
	// On Cluster C (8 NICs, 1:1), routing should approach 8x on the inter
	// phase for large transfers.
	e, f := fabric(t, cluster.ClusterC, 2)
	r := New(f, true)
	n := 4 * f.C.NICBandwidth // 4 s direct
	r.Transfer("kv", 0, 8, n)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	bIntra := 1 / f.C.IntraBandwidth
	bInter := 1 / f.C.NICBandwidth
	want := Eq1Cost(n, 8, 8, bIntra, bInter/RoutedInterEff)
	if mk > 1.5*want {
		t.Fatalf("routed time %v vs Eq.1 %v: routing not scaling across NICs", mk, want)
	}
	if mk > DirectCost(n, bInter)/2.5 {
		t.Fatalf("routed %v should be far below direct %v", mk, DirectCost(n, bInter))
	}
}

func TestEq1Properties(t *testing.T) {
	bIntra, bInter := 1/400e9, 1/25e9
	n := 1e9
	direct := DirectCost(n, bInter)
	routed := Eq1Cost(n, 8, 8, bIntra, bInter)
	if routed >= direct {
		t.Fatalf("Eq.1 with 8 proxies (%v) should beat direct (%v)", routed, direct)
	}
	// Monotone improvement in proxy count (for the inter-dominated regime).
	prev := Eq1Cost(n, 1, 1, bIntra, bInter)
	if prev != direct {
		t.Fatalf("x1=x2=1 should equal direct cost: %v vs %v", prev, direct)
	}
	for x := 2; x <= 8; x *= 2 {
		cur := Eq1Cost(n, x, x, bIntra, bInter)
		if cur >= prev {
			t.Fatalf("Eq.1 should improve with more proxies: x=%d gives %v >= %v", x, cur, prev)
		}
		prev = cur
	}
}

func TestEq1PanicsOnBadProxies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Eq1Cost(1, 0, 1, 1, 1)
}

func TestAsymmetricProxiesUseMin(t *testing.T) {
	bIntra, bInter := 1/400e9, 1/25e9
	// Inter term must be governed by min(x1,x2).
	a := Eq1Cost(1e9, 8, 2, bIntra, bInter)
	b := Eq1Cost(1e9, 2, 2, bIntra, bInter)
	if a < b {
		t.Fatalf("x2=2 bottleneck: %v should be >= %v", a, b)
	}
}

// Routed transfers between different node pairs should overlap freely:
// two concurrent routed flows between disjoint node pairs take the same
// time as one.
func TestDisjointRoutedFlowsOverlap(t *testing.T) {
	e, f := fabric(t, cluster.ClusterA, 4)
	r := New(f, true)
	n := f.C.NICBandwidth
	r.Transfer("f1", 0, 8, n)   // node 0 -> 1
	r.Transfer("f2", 16, 24, n) // node 2 -> 3
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Single-flow baseline on a fresh engine.
	e1, f1 := fabric(t, cluster.ClusterA, 4)
	New(f1, true).Transfer("f1", 0, 8, n)
	mk1, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk > mk1*1.01 {
		t.Fatalf("disjoint flows should not interfere: %v vs %v", mk, mk1)
	}
}
