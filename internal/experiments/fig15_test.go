package experiments

import (
	"bytes"
	"strings"
	"testing"

	"zeppelin/internal/partition"
	"zeppelin/internal/seq"
)

// TestFig15SweepCompletesTo8192Ranks runs the full scaling sweep — the
// acceptance bar is that the 8192-rank world plans end to end on both
// paths, the incremental mode split engages, and every cell stays
// cost-equal within the self-regulation drift.
func TestFig15SweepCompletesTo8192Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep to 8192 ranks takes a few seconds")
	}
	res, err := Fig15(Options{Seeds: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(Fig15Ranks) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(Fig15Ranks))
	}
	for i, cell := range res.Cells {
		if cell.Ranks != Fig15Ranks[i] {
			t.Fatalf("cell %d ranks = %d, want %d", i, cell.Ranks, Fig15Ranks[i])
		}
		if cell.Modes.Plans() != Fig15Iters {
			t.Fatalf("%d ranks: %d plans counted, want %d", cell.Ranks, cell.Modes.Plans(), Fig15Iters)
		}
		if cell.Modes.Patched == 0 {
			t.Fatalf("%d ranks: incremental path never patched (%+v)", cell.Ranks, cell.Modes)
		}
		// Cost-equality: the planner's own drift bound (15%) plus rounding
		// slack. A violation here means the self-regulation guard broke.
		if cell.MaxCostRatio > 1+partition.MaxImbalanceDrift+0.05 {
			t.Fatalf("%d ranks: cost ratio %.3f exceeds drift bound", cell.Ranks, cell.MaxCostRatio)
		}
		if cell.Full.P50Micros <= 0 || cell.Incremental.P50Micros <= 0 {
			t.Fatalf("%d ranks: missing latency measurements: %+v", cell.Ranks, cell)
		}
	}
	last := res.Cells[len(res.Cells)-1]
	if last.Ranks != 8192 {
		t.Fatalf("sweep must end at 8192 ranks, got %d", last.Ranks)
	}
}

func TestFig15StreamIsDeterministicAndFeasible(t *testing.T) {
	a := Fig15Stream(64, 6)
	b := Fig15Stream(64, 6)
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("stream lengths %d/%d", len(a), len(b))
	}
	cfg := Fig15PlanConfig(64)
	capTotal := cfg.Cluster.World() * cfg.CapacityTokens
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("iteration %d: stream not deterministic", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("iteration %d seq %d: stream not deterministic", i, j)
			}
		}
		if total := seq.TotalLen(a[i]); total > capTotal {
			t.Fatalf("iteration %d: %d tokens exceeds capacity %d", i, total, capTotal)
		}
		if i > 0 && sameSeqs(a[i-1], a[i]) {
			t.Fatalf("iteration %d: churn produced an identical batch", i)
		}
	}
}

func sameSeqs(a, b []seq.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWriteFig15Renders(t *testing.T) {
	// Rendering drives the full sweep; trim to a cheap check of the table
	// shape via the smallest world by temporarily narrowing the sweep.
	saved := Fig15Ranks
	Fig15Ranks = []int{64}
	defer func() { Fig15Ranks = saved }()

	var buf bytes.Buffer
	if err := WriteFig15(&buf, Options{Seeds: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 15", "ranks", "speedup", "allocations per plan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}
