package experiments

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// The golden values below pin the regenerated paper numbers of this
// revision. The simulation is fully deterministic, so any drift means a
// code change silently altered paper results — if the change is
// intentional, re-pin the values and say so in the commit.

const goldenTol = 2e-3 // 0.2% relative

func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if want == 0 {
		if diff > goldenTol {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
		return
	}
	if diff/want > goldenTol {
		t.Errorf("%s = %v, want %v (±%.1f%%)", what, got, want, 100*goldenTol)
	}
}

// TestTable3Golden pins the per-component cost ranges (ms) of Table 3.
func TestTable3Golden(t *testing.T) {
	cols, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	type ranges struct{ fwdMin, fwdMax, attnMin, attnMax, bwdMin, bwdMax float64 }
	want := map[string]ranges{
		"Balanced": {765.4572, 862.0752, 666.9871, 750.5765, 1225.4771, 1338.4160},
		"Skewed":   {1366.8479, 1437.2626, 1268.4372, 1325.5820, 2428.1759, 2481.3869},
	}
	for _, c := range cols {
		g, ok := want[c.Distribution]
		if !ok {
			t.Fatalf("unexpected distribution %q", c.Distribution)
		}
		near(t, c.Distribution+"/Forward.Min", c.Forward.Min, g.fwdMin)
		near(t, c.Distribution+"/Forward.Max", c.Forward.Max, g.fwdMax)
		near(t, c.Distribution+"/ForwardAttn.Min", c.ForwardAttn.Min, g.attnMin)
		near(t, c.Distribution+"/ForwardAttn.Max", c.ForwardAttn.Max, g.attnMax)
		near(t, c.Distribution+"/Backward.Min", c.Backward.Min, g.bwdMin)
		near(t, c.Distribution+"/Backward.Max", c.Backward.Max, g.bwdMax)
	}
	// The headline skew penalty: a skewed distribution costs ~1.67× the
	// balanced one end to end on the forward pass.
	near(t, "skew-over-balanced", cols[1].Forward.Max/cols[0].Forward.Max, 1437.2626/862.0752)
}

// TestFig8PanelGolden pins the first Fig. 8 panel (7B, 64k context,
// 16 GPUs on Cluster A) — per-method tokens/second and the Zeppelin-
// over-TE-CP speedups the bar annotations report.
func TestFig8PanelGolden(t *testing.T) {
	cell := fig8Cells()[0]
	want := map[string][4]float64{ // dataset -> TE CP, LLaMA CP, Hybrid DP, Zeppelin
		"arxiv":      {13073.8485, 26099.6719, 15977.4020, 33589.5596},
		"github":     {13071.2067, 25932.2643, 16618.4564, 33261.4214},
		"prolong64k": {13022.6253, 23186.5633, 14712.7224, 26523.0383},
	}
	for _, d := range evalDatasets() {
		for i, m := range Methods() {
			tp, err := MeanThroughput(context.Background(), cell, d.Batch, m, 1)
			if err != nil {
				t.Fatal(err)
			}
			near(t, fmt.Sprintf("%s/%s", d.Name, m.Name()), tp, want[d.Name][i])
		}
	}
	// Headline speedups for the panel.
	near(t, "arxiv speedup", want["arxiv"][3]/want["arxiv"][0], 2.5691)
	near(t, "prolong64k speedup", want["prolong64k"][3]/want["prolong64k"][0], 2.0367)
}

// TestExperimentsSerialParallelIdentical is the PR's acceptance
// criterion at the figure level: a full regenerator must produce
// identical rows on one worker and on an oversubscribed pool.
func TestExperimentsSerialParallelIdentical(t *testing.T) {
	serial, err := Fig11(Options{Seeds: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig11(Options{Seeds: 1, Workers: 2 * runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		for j := range serial[i].Tput {
			if serial[i].Tput[j] != parallel[i].Tput[j] {
				t.Errorf("%s/%s: serial %v != parallel %v",
					serial[i].Dataset, serial[i].Labels[j], serial[i].Tput[j], parallel[i].Tput[j])
			}
		}
	}
}
