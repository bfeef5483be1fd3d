package experiments

import (
	"context"
	"strings"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/sim"
	"zeppelin/internal/workload"
)

func TestMethodsOrder(t *testing.T) {
	ms := Methods()
	if len(ms) != 4 {
		t.Fatalf("want 4 methods, got %d", len(ms))
	}
	want := []string{"TE CP", "LLaMA CP", "Hybrid DP", "Zeppelin"}
	for i, m := range ms {
		if m.Name() != want[i] {
			t.Fatalf("method %d = %q, want %q", i, m.Name(), want[i])
		}
	}
}

func TestMeanThroughputAveragesSeeds(t *testing.T) {
	cell := Cell{Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 1, TP: 1, TokensPerGPU: 2048}
	tp1, err := MeanThroughput(context.Background(), cell, workload.ArXiv.Batch, Methods()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := MeanThroughput(context.Background(), cell, workload.ArXiv.Batch, Methods()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if tp1 <= 0 || tp2 <= 0 {
		t.Fatal("throughput must be positive")
	}
}

// TestErrorPropagation checks that a failing cell surfaces its error
// wrapped with the job key, and that the reported failure is the
// earliest added one regardless of pool timing.
func TestErrorPropagation(t *testing.T) {
	ok := Cell{Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 1, TP: 1, TokensPerGPU: 1024}
	bad, bad2 := ok, ok
	bad.Nodes = 0 // fails Validate
	bad2.TP = 3   // does not divide GPUs per node
	var g grid
	g.add("ok", ok, workload.ArXiv.Batch, Methods()[0], 1)
	g.add("bad-early", bad, workload.ArXiv.Batch, Methods()[0], 1)
	g.add("bad-late", bad2, workload.ArXiv.Batch, Methods()[0], 1)
	for _, workers := range []int{1, 8} {
		_, err := g.run(context.Background(), workers)
		if err == nil {
			t.Fatalf("workers=%d: grid with invalid cell must fail", workers)
		}
		if !strings.Contains(err.Error(), `"bad-early/s0"`) {
			t.Fatalf("workers=%d: err = %v, want the earliest failing key", workers, err)
		}
	}
}

func TestFig1CoversAllDatasets(t *testing.T) {
	rs := Fig1()
	if len(rs) != len(workload.All) {
		t.Fatalf("fig1 covers %d datasets, want %d", len(rs), len(workload.All))
	}
	for _, r := range rs {
		var sum float64
		for _, p := range r.SeqProps {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: normalized props sum to %v", r.Dataset, sum)
		}
	}
}

func TestFig3PackingRedundancyDominatesShortBins(t *testing.T) {
	// The paper: redundant computation + communication reach ~60% of the
	// attention cost for <1k sequences in StackExchange under packing.
	r := Fig3Packing(workload.StackExchange, 30)
	share := ShortSeqOverheadShare(r, 0)
	if share < 0.4 {
		t.Errorf("<1k overhead share %.2f under packing; paper reports up to ~0.6", share)
	}
	// Long bins must be compute-dominated for long-sequence datasets.
	rl := Fig3Packing(workload.ProLong64k, 30)
	if s := ShortSeqOverheadShare(rl, 6); s > 0.5 {
		t.Errorf("32-64k bin overhead share %.2f should be compute-dominated", s)
	}
}

func TestFig3EvenCPCommDominatesShortBins(t *testing.T) {
	r := Fig3EvenCP(workload.StackExchange, 30)
	b := r.Bins[0]
	if b.Comm <= b.Compute {
		t.Errorf("<1k bin under even CP should be comm-dominated: comm=%.4f comp=%.4f", b.Comm, b.Compute)
	}
	// For the longest prolong bin, compute should dominate comm.
	rl := Fig3EvenCP(workload.ProLong64k, 30)
	lb := rl.Bins[6]
	if lb.Compute <= lb.Comm {
		t.Errorf("32-64k bin should be compute-dominated: comm=%.4f comp=%.4f", lb.Comm, lb.Compute)
	}
}

func TestFig5ZoneShapes(t *testing.T) {
	r := Fig5()
	if !(r.S0 < r.S1) {
		t.Fatalf("zone boundaries out of order: %v >= %v", r.S0, r.S1)
	}
	// Curves must be monotone in length, attention fastest-growing.
	for i := 1; i < len(r.Points); i++ {
		p, q := r.Points[i-1], r.Points[i]
		if q.AttnComp <= p.AttnComp || q.Linear <= p.Linear ||
			q.IntraSend <= p.IntraSend || q.InterSend <= p.InterSend {
			t.Fatal("cost curves must be monotone in sequence length")
		}
		attnGrowth := q.AttnComp / p.AttnComp
		linGrowth := q.Linear / p.Linear
		if attnGrowth <= linGrowth {
			t.Fatal("attention must grow faster than linear modules")
		}
	}
	// Web datasets are local/intra heavy; prolong64k is inter-heavy.
	fw := r.ZoneShare["fineweb"]
	pl := r.ZoneShare["prolong64k"]
	if fw[2] > 0.4 {
		t.Errorf("fineweb inter-zone share %.2f too high", fw[2])
	}
	if pl[2] < 0.3 {
		t.Errorf("prolong64k inter-zone share %.2f too low", pl[2])
	}
}

func TestFig11AblationShape(t *testing.T) {
	rows, err := Fig11(Options{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("fig11 rows = %d", len(rows))
	}
	for _, r := range rows {
		base := r.Tput[0]
		full := r.Tput[len(r.Tput)-1]
		if full <= base {
			t.Errorf("%s: w/ All (%.0f) should beat TE CP (%.0f)", r.Dataset, full, base)
		}
		for i, tp := range r.Tput {
			if tp <= 0 {
				t.Errorf("%s: variant %s has zero throughput", r.Dataset, r.Labels[i])
			}
		}
	}
}

func TestFig12TracesRun(t *testing.T) {
	for _, sc := range Fig12Scenarios() {
		events, err := Fig12Trace(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Title, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: no events", sc.Title)
		}
	}
	// Scenario (a) must show inter-node communication; scenario (c) must
	// not (sequences fit within nodes).
	evA, _ := Fig12Trace(Fig12Scenarios()[0])
	evC, _ := Fig12Trace(Fig12Scenarios()[2])
	var interA, interC int
	for _, e := range evA {
		if e.Kind == sim.KindInterComm {
			interA++
		}
	}
	for _, e := range evC {
		if e.Kind == sim.KindInterComm {
			interC++
		}
	}
	if interA == 0 {
		t.Error("TE CP on 2 nodes must cross node boundaries")
	}
	if interC != 0 {
		t.Error("multi-sequence Zeppelin scenario should avoid inter-node traffic")
	}
}

func TestTable3Shape(t *testing.T) {
	cols, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0].Distribution != "Balanced" || cols[1].Distribution != "Skewed" {
		t.Fatalf("columns = %+v", cols)
	}
	bal, skew := cols[0], cols[1]
	// Skewed end-to-end costs exceed balanced (the long sequence
	// dominates attention).
	if skew.Forward.Max <= bal.Forward.Max {
		t.Errorf("skewed forward max %.0f should exceed balanced %.0f", skew.Forward.Max, bal.Forward.Max)
	}
	if skew.Backward.Max <= bal.Backward.Max {
		t.Errorf("skewed backward max %.0f should exceed balanced %.0f", skew.Backward.Max, bal.Backward.Max)
	}
	// Remapping and partitioning must be small next to attention.
	for _, c := range cols {
		if c.ForwardRemap.Max > c.ForwardAttn.Max/2 {
			t.Errorf("%s: remap %.0f too large vs attention %.0f", c.Distribution, c.ForwardRemap.Max, c.ForwardAttn.Max)
		}
		if c.SeqPartition.Max > 50 {
			t.Errorf("%s: partition overhead %.0fms too large", c.Distribution, c.SeqPartition.Max)
		}
		if c.Backward.Max <= c.Forward.Max {
			t.Errorf("%s: backward should cost more than forward", c.Distribution)
		}
	}
}

// TestFmtKConsistentUnits pins the context-length formatter: exact
// multiples keep the paper's integer form ("64k", "2M"), everything
// else rounds to one decimal in the same unit instead of dropping back
// to a raw integer (the old behavior rendered 100000 as "100000" next
// to "512k" in the same axis). Sub-1k counts stay raw.
func TestFmtKConsistentUnits(t *testing.T) {
	cases := []struct {
		tokens int
		want   string
	}{
		{0, "0"},
		{512, "512"},
		{1023, "1023"},
		{1024, "1k"},
		{65536, "64k"},
		{524288, "512k"},
		{1536, "1.5k"},
		{100000, "97.7k"},
		{1047552, "1023k"},
		{1048576, "1M"},
		{2097152, "2M"},
		{1572864, "1.5M"},
		{2000000, "1.9M"},
	}
	for _, c := range cases {
		if got := fmtK(c.tokens); got != c.want {
			t.Errorf("fmtK(%d) = %q, want %q", c.tokens, got, c.want)
		}
	}
}

func TestWriteFunctionsProduceOutput(t *testing.T) {
	var sb strings.Builder
	WriteFig1(&sb)
	WriteTable2(&sb)
	WriteFig5(&sb)
	cols, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTable3(&sb, cols); err != nil {
		t.Fatal(err)
	}
	if err := WriteFig12(&sb, Options{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 1", "Table 2", "Figure 5", "Table 3", "Figure 12", "zone boundaries"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
