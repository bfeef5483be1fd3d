package cluster

import (
	"math"
	"testing"

	"zeppelin/internal/sim"
)

func TestHealthNilIsNominal(t *testing.T) {
	var h *Health
	if h.Degraded() {
		t.Fatal("nil health is nominal")
	}
	if h.SlowOf(3) != 1 || h.NICDerateOf(0) != 1 {
		t.Fatal("nil health must report nominal factors")
	}
	if err := h.Validate(8, 4); err != nil {
		t.Fatal(err)
	}
	if h.Speeds(4) != nil {
		t.Fatal("nil health must have nil (all ones) speeds")
	}
}

func TestHealthValidate(t *testing.T) {
	if err := (&Health{Slow: []float64{1, 0.5}}).Validate(8, 4); err == nil {
		t.Fatal("slowdown < 1 must fail")
	}
	if err := (&Health{Slow: make([]float64, 9)}).Validate(8, 4); err == nil {
		t.Fatal("overlong slow vector must fail")
	}
	if err := (&Health{NICDerate: []float64{1.5}}).Validate(8, 4); err == nil {
		t.Fatal("derate > 1 must fail")
	}
	if err := (&Health{NICDerate: []float64{-0.1}}).Validate(8, 4); err == nil {
		t.Fatal("negative derate must fail")
	}
	ok := &Health{Slow: []float64{1, 2.5}, NICDerate: []float64{0.25}}
	if err := ok.Validate(8, 4); err != nil {
		t.Fatal(err)
	}
	if !ok.Degraded() {
		t.Fatal("degraded view not detected")
	}
	// Zero entries mean "unset": nominal.
	if (&Health{Slow: []float64{0, 0}}).Degraded() {
		t.Fatal("zero slow entries are nominal placeholders")
	}
}

func TestHealthSpeeds(t *testing.T) {
	// A view that slows no rank, such as a NIC-only derate, has nil
	// speeds.
	for _, h := range []*Health{{}, {Slow: []float64{1, 0, 1}}, {NICDerate: []float64{0.25}}} {
		if got := h.Speeds(4); got != nil {
			t.Fatalf("%+v: speeds = %v, want nil", *h, got)
		}
	}
	h := &Health{Slow: []float64{1, 2, 4}}
	got := h.Speeds(4)
	want := []float64{1, 0.5, 0.25, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("speeds = %v, want %v", got, want)
		}
	}
}

func TestFabricDegrade(t *testing.T) {
	c := MustNew(ClusterA, 2)
	e := sim.NewEngine()
	f := NewFabric(e, c)
	nominalRate := f.NICSend[1].Rate

	f.SetHealth(&Health{
		Slow:      []float64{1, 2.5},
		NICDerate: []float64{1, 0.25},
	})
	if f.Compute[0].Speed != 0 {
		t.Fatal("nominal rank's compute stream must stay untouched")
	}
	if got := f.Compute[1].Speed; got != 1/2.5 {
		t.Fatalf("slow rank speed = %v, want %v", got, 1/2.5)
	}
	if f.NICSend[0].Rate != nominalRate {
		t.Fatal("nominal NIC must keep its rate")
	}
	if got := f.NICSend[1].Rate; got != nominalRate*0.25 {
		t.Fatalf("derated NIC tx rate = %v, want %v", got, nominalRate*0.25)
	}
	if got := f.NICRecv[1].Rate; got != nominalRate*0.25 {
		t.Fatalf("derated NIC rx rate = %v, want %v", got, nominalRate*0.25)
	}

	// Degrading with a nominal view is a no-op.
	e2 := sim.NewEngine()
	f2 := NewFabric(e2, c)
	f2.SetHealth(&Health{Slow: []float64{1, 1}})
	if f2.Compute[0].Speed != 0 || f2.NICSend[0].Rate != nominalRate {
		t.Fatal("nominal view must not touch the fabric")
	}

	// Views are set, not stacked: the fabric above, moved on through more
	// views, reads bit for bit what a new fabric under each view reads.
	for i, h := range []*Health{
		{NICDerate: []float64{0.5, 0.5, 0.3}},
		{Slow: []float64{3, 1, 1.5}},
		nil,
		{Slow: []float64{1, 2.5}, NICDerate: []float64{1, 0.25}},
	} {
		f.SetHealth(h)
		fresh := NewFabric(sim.NewEngine(), c)
		fresh.SetHealth(h)
		got := [][]*sim.Resource{f.Compute, f.IntraSend, f.IntraRecv, f.NICSend, f.NICRecv}
		want := [][]*sim.Resource{fresh.Compute, fresh.IntraSend, fresh.IntraRecv, fresh.NICSend, fresh.NICRecv}
		for k := range want {
			for j, w := range want[k] {
				g := got[k][j]
				if math.Float64bits(g.Rate) != math.Float64bits(w.Rate) || math.Float64bits(g.Speed) != math.Float64bits(w.Speed) || g.Latency != w.Latency {
					t.Fatalf("view %d: resource %s %d reads rate %v speed %v, a new fabric %v %v", i, w.Name, j, g.Rate, g.Speed, w.Rate, w.Speed)
				}
			}
		}
	}
}

// A slowed compute stream stretches exactly the kernel work, not the
// launch latency, and shows up end to end in task times.
func TestDegradedComputeTaskTime(t *testing.T) {
	c := MustNew(ClusterA, 1)
	e := sim.NewEngine()
	f := NewFabric(e, c)
	f.SetHealth(&Health{Slow: []float64{2}})
	tk := f.ComputeTask("k", 0, 10e-3)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := 10e-3/0.5 + ClusterA.LaunchLatency
	if got := tk.End - tk.Start; got != want {
		t.Fatalf("degraded kernel took %v, want %v", got, want)
	}
}
