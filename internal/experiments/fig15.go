package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/partition"
	"zeppelin/internal/runner"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload"
)

// Fig15 is the planner fast-path scaling sweep, an experiment the paper
// has no analogue for: it measures *planning latency* — the host-side
// cost that bounds streaming-campaign goodput once re-planning is a
// per-iteration hot path — rather than simulated iteration time. Worlds
// of 64 → 8192 data-parallel ranks plan a churning high-multiplicity
// stream (FineWeb-shaped arrivals, ~5% of sequences replaced per
// iteration) twice: once through the full hierarchical solve, once
// through the incremental planner (keyed plan cache + delta patching).
// Each cell reports plan-latency p50/p95, allocations per plan, the
// incremental mode split, and the worst cost ratio of incremental over
// full plans — the sweep is self-verifying: speed must not buy imbalance
// beyond the configured drift.
//
// Latencies are wall-clock and hence machine-dependent; the structural
// outputs (mode splits, cost ratios) are deterministic. The authoritative
// allocation numbers come from `go test -bench Fig15 -benchmem`, which
// exercises the same stream through the same planners.

// Fig15Iters is the per-cell planning-stream length.
const Fig15Iters = 24

// Fig15ChurnFrac is the per-iteration fraction of sequences replaced.
const Fig15ChurnFrac = 0.05

// Fig15MaxDeltaFrac is the incremental planner's patch admission bound
// used by the sweep and the benchmarks.
const Fig15MaxDeltaFrac = 0.25

// Fig15Ranks are the swept world sizes (data-parallel ranks; nodes of 8).
var Fig15Ranks = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Fig15Series is one planning mode's measurement within a cell.
type Fig15Series struct {
	P50Micros     float64 `json:"p50_micros"`
	P95Micros     float64 `json:"p95_micros"`
	AllocsPerPlan float64 `json:"allocs_per_plan"`
}

// Fig15Cell is one world size's full-vs-incremental comparison.
type Fig15Cell struct {
	Ranks int `json:"ranks"`
	Nodes int `json:"nodes"`
	// Seqs is the mean batch size (sequences) of the cell's stream.
	Seqs int `json:"seqs"`

	Full        Fig15Series `json:"full"`
	Incremental Fig15Series `json:"incremental"`

	// Modes is the incremental planner's decision split over the stream.
	Modes partition.Counters `json:"modes"`
	// SpeedupP50 is full p50 latency over incremental p50.
	SpeedupP50 float64 `json:"speedup_p50"`
	// MaxCostRatio is the worst per-iteration LoadImbalance ratio of the
	// incremental plan over the full solve (1.0 = always cost-equal).
	MaxCostRatio float64 `json:"max_cost_ratio"`
}

// Fig15Result is the experiment's structured output.
type Fig15Result struct {
	Iters int         `json:"iters"`
	Churn float64     `json:"churn_frac"`
	Cells []Fig15Cell `json:"cells"`
}

// Fig15PlanConfig is the partition configuration of a sweep cell: nodes
// of Cluster A (8 GPUs each) at the default campaign capacity regime.
func Fig15PlanConfig(ranks int) partition.Config {
	return partition.Config{
		Cluster:        cluster.MustNew(cluster.ClusterA, ranks/cluster.ClusterA.GPUsPerNode),
		CapacityTokens: 5120, // 1.25 × the 4k per-rank budget, the default L
	}
}

// Fig15Stream pre-generates a cell's deterministic planning stream: a
// FineWeb batch at ~90% fill followed by churned successors. The same
// stream drives both planning modes (and the repository benchmarks), so
// comparisons are batch-for-batch.
func Fig15Stream(ranks, iters int) [][]seq.Sequence {
	rng := rand.New(rand.NewSource(4242))
	budget := ranks * 4096 * 9 / 10
	batch := workload.FineWeb.Batch(budget, rng)
	out := make([][]seq.Sequence, 0, iters)
	out = append(out, batch)
	nextID := 1 << 24
	for i := 1; i < iters; i++ {
		batch, nextID = churnBatch(batch, rng, Fig15ChurnFrac, nextID)
		out = append(out, batch)
	}
	return out
}

// churnBatch replaces roughly frac of the batch's sequences (bounded at
// ~10% of its tokens) with fresh short arrivals of matching total,
// guaranteeing at least one change per step.
func churnBatch(batch []seq.Sequence, rng *rand.Rand, frac float64, nextID int) ([]seq.Sequence, int) {
	total := seq.TotalLen(batch)
	budget := total / 10
	out := make([]seq.Sequence, 0, len(batch))
	removed := 0
	for _, s := range batch {
		if removed+s.Len <= budget && rng.Float64() < frac {
			removed += s.Len
			continue
		}
		out = append(out, s)
	}
	if removed == 0 && len(out) > 0 {
		removed = out[len(out)-1].Len
		out = out[:len(out)-1]
	}
	for removed > 256 {
		l := 256 + rng.Intn(1024)
		if l > removed {
			l = removed
		}
		out = append(out, seq.Sequence{ID: nextID, Len: l})
		nextID++
		removed -= l
	}
	return out, nextID
}

// Fig15 runs the sweep. Stream generation (the data-heavy part) fans out
// across the worker pool; the latency/allocation measurement itself runs
// serially so cells never time each other's noise.
func Fig15(opts Options) (*Fig15Result, error) {
	opts = opts.normalized()
	streams := make([][][]seq.Sequence, len(Fig15Ranks))
	err := runner.ForEach(opts.ctx(), opts.Workers, len(Fig15Ranks), func(i int) error {
		streams[i] = Fig15Stream(Fig15Ranks[i], Fig15Iters)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig15: %w", err)
	}
	res := &Fig15Result{Iters: Fig15Iters, Churn: Fig15ChurnFrac}
	for i, ranks := range Fig15Ranks {
		cell, err := fig15Cell(ranks, streams[i])
		if err != nil {
			return nil, fmt.Errorf("fig15: %d ranks: %w", ranks, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// fig15Cell measures one world size on a pre-generated stream.
func fig15Cell(ranks int, stream [][]seq.Sequence) (Fig15Cell, error) {
	cfg := Fig15PlanConfig(ranks)
	cell := Fig15Cell{Ranks: ranks, Nodes: cfg.Cluster.Nodes, MaxCostRatio: 1}
	var seqs int
	for _, b := range stream {
		seqs += len(b)
	}
	cell.Seqs = seqs / len(stream)

	full, err := partition.New(cfg)
	if err != nil {
		return cell, err
	}
	fullImb := make([]float64, len(stream))
	fullLat := make([]float64, len(stream))
	fullAllocs, err := measure(len(stream), fullLat, func(i int) (*seq.Plan, error) {
		r, err := full.Plan(stream[i])
		if err != nil {
			return nil, err
		}
		return r.Plan, nil
	}, fullImb)
	if err != nil {
		return cell, err
	}

	inc := partition.NewIncremental(partition.IncrementalConfig{MaxDeltaFrac: Fig15MaxDeltaFrac})
	incImb := make([]float64, len(stream))
	incLat := make([]float64, len(stream))
	incAllocs, err := measure(len(stream), incLat, func(i int) (*seq.Plan, error) {
		r, _, err := inc.Plan(cfg, stream[i])
		if err != nil {
			return nil, err
		}
		return r.Plan, nil
	}, incImb)
	if err != nil {
		return cell, err
	}

	cell.Full = Fig15Series{
		P50Micros:     campaign.Percentile(fullLat, 50),
		P95Micros:     campaign.Percentile(fullLat, 95),
		AllocsPerPlan: fullAllocs,
	}
	cell.Incremental = Fig15Series{
		P50Micros:     campaign.Percentile(incLat, 50),
		P95Micros:     campaign.Percentile(incLat, 95),
		AllocsPerPlan: incAllocs,
	}
	cell.Modes = inc.Counters()
	if cell.Incremental.P50Micros > 0 {
		cell.SpeedupP50 = cell.Full.P50Micros / cell.Incremental.P50Micros
	}
	for i := range stream {
		if fullImb[i] > 0 {
			if r := incImb[i] / fullImb[i]; r > cell.MaxCostRatio {
				cell.MaxCostRatio = r
			}
		}
	}
	return cell, nil
}

// measure times one planning pass, filling latencies (µs) and imbalances,
// and returns the mean allocations per plan (Mallocs delta — exact while
// the pass runs alone, which Fig15 guarantees by measuring serially).
// The cost-verification pass runs after the second MemStats read so its
// own allocations never contaminate AllocsPerPlan.
func measure(n int, latMicros []float64, plan func(i int) (*seq.Plan, error), imb []float64) (float64, error) {
	plans := make([]*seq.Plan, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		p, err := plan(i)
		latMicros[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return 0, err
		}
		plans[i] = p
	}
	runtime.ReadMemStats(&m1)
	for i, p := range plans {
		imb[i] = partition.LoadImbalance(p, nil)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// WriteFig15 renders the sweep table.
func WriteFig15(w io.Writer, opts Options) error {
	res, err := Fig15(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 15: planner fast path, %d-iteration stream (%.0f%% churn), full vs incremental\n\n",
		res.Iters, res.Churn*100)
	fmt.Fprintf(w, "  %6s %6s %6s | %10s %10s | %10s %10s | %7s | %5s %7s %6s | %6s\n",
		"ranks", "nodes", "seqs",
		"full p50", "p95 (µs)", "inc p50", "p95 (µs)", "speedup",
		"full", "patched", "cached", "cost")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "  %6d %6d %6d | %10.0f %10.0f | %10.0f %10.0f | %6.1fx | %5d %7d %6d | %5.3fx\n",
			c.Ranks, c.Nodes, c.Seqs,
			c.Full.P50Micros, c.Full.P95Micros,
			c.Incremental.P50Micros, c.Incremental.P95Micros,
			c.SpeedupP50,
			c.Modes.Full, c.Modes.Patched, c.Modes.Cached,
			c.MaxCostRatio)
	}
	fmt.Fprintf(w, "\n  allocations per plan (full vs incremental):\n")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "  %6d ranks: %8.0f vs %8.0f\n", c.Ranks, c.Full.AllocsPerPlan, c.Incremental.AllocsPerPlan)
	}
	return nil
}

// Fig15ScalingSpeedup returns the p50 speedup at the largest world.
func Fig15ScalingSpeedup(res *Fig15Result) float64 {
	if len(res.Cells) == 0 {
		return 0
	}
	return res.Cells[len(res.Cells)-1].SpeedupP50
}
