package experiments

import (
	"fmt"
	"io"

	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/faults"
	"zeppelin/internal/model"
	"zeppelin/internal/trace"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
)

// Fig14 extends the evaluation past the paper's healthy-cluster
// assumption: the four compared systems driven through a 200-iteration
// steady arxiv stream on a 7B / 24-GPU Cluster A cell, under four fault
// scenarios — healthy, a mid-campaign compute straggler, a fail-stop
// node loss with checkpoint restart and rejoin, and a graceful elastic
// shrink (a sick host degrades, its node is drained away, capacity grows
// back). It measures what the one-shot figures cannot: whether
// Zeppelin's rebalancing advantage survives when the cluster itself
// misbehaves. Speed-aware replanning (partitioner load weighting,
// weighted ring chunks, speed-weighted remap targets) lets Zeppelin
// absorb stragglers at near the harmonic-mean slowdown, while the even
// splits of TE CP and LLaMA CP stall at the slowest rank.

// Fig14Iters is the campaign horizon of every scenario.
const Fig14Iters = 200

// Fig14Cell is the fault-campaign cell: the Fig. 8 7B configuration
// widened to 3 nodes (24 GPUs), so an elastic shrink still leaves a
// multi-node cluster — the regime where even-split methods stay
// NIC-bound and capacity loss cannot be hidden behind vanishing
// inter-node traffic.
func Fig14Cell(seed int64) trainer.Config {
	return trainer.Config{
		Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 3, TP: 1,
		TokensPerGPU: 4096, Seed: seed,
	}
}

// Fig14Scenarios enumerates the scenario axis in report order. The
// healthy baseline is the nil schedule.
func Fig14Scenarios() []string {
	return []string{"healthy", "straggler", "failstop", "shrink"}
}

// fig14Schedule builds one named scenario for the fig14 cell.
func fig14Schedule(name string) (*faults.Schedule, error) {
	cell := Fig14Cell(0)
	return faults.ByName(name, Fig14Iters, cell.Nodes, cell.Spec.GPUsPerNode/cell.TP)
}

// Fig14Row is one (scenario, method) cell of the fault grid.
type Fig14Row struct {
	Scenario string `json:"scenario"`
	campaign.RowSummary
	// GoodputRatio is the method's campaign goodput under the scenario
	// over its own healthy goodput (1 = unaffected). The figure's
	// headline is that Zeppelin's ratio strictly dominates TE CP's under
	// the straggler and elastic-shrink scenarios.
	GoodputRatio float64 `json:"goodput_ratio"`
	// RecoveryIters is the fault's footprint on the seed-0 campaign: the
	// number of post-onset iterations whose goodput stayed below the
	// healthy band (pre-fault median / 1.1). Methods that re-plan around
	// faults recover while the fault is still active; rigid splits stay
	// degraded until it clears (0 for the healthy scenario).
	RecoveryIters int `json:"recovery_iters"`
}

// Fig14Result is the experiment's structured output: the seed-averaged
// grid plus Zeppelin's full seed-0 report per scenario for timeline
// rendering (fault and recovery markers included).
type Fig14Result struct {
	Iters     int                         `json:"iters"`
	Arrival   string                      `json:"arrival"`
	Scenarios []string                    `json:"scenarios"`
	Rows      []Fig14Row                  `json:"rows"`
	Samples   map[string]*campaign.Report `json:"samples"`
}

// Fig14 runs the fault grid. Each (scenario × method × seed) campaign is
// an independent deterministic simulation fanned across the worker pool,
// bit-identical at every pool size.
func Fig14(opts Options) (*Fig14Result, error) {
	opts = opts.normalized()
	scenarios := Fig14Scenarios()
	methods := Methods()

	var cfgs []campaign.Config
	scheds := make([]*faults.Schedule, len(scenarios))
	for i, scen := range scenarios {
		sched, err := fig14Schedule(scen)
		if err != nil {
			return nil, fmt.Errorf("fig14: %w", err)
		}
		scheds[i] = sched
		for _, m := range methods {
			for s := 0; s < opts.Seeds; s++ {
				cfgs = append(cfgs, campaign.Config{
					Trainer: Fig14Cell(SeedValue(s)),
					Method:  m,
					Iters:   Fig14Iters,
					Arrival: campaign.Steady{D: workload.ArXiv},
					Policy:  campaign.Threshold{},
					Faults:  sched,
				})
			}
		}
	}
	reports, err := campaign.RunGrid(opts.ctx(), cfgs, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("fig14: %w", err)
	}

	res := &Fig14Result{
		Iters:     Fig14Iters,
		Arrival:   (campaign.Steady{D: workload.ArXiv}).Name(),
		Scenarios: scenarios,
		Samples:   make(map[string]*campaign.Report, len(scenarios)),
	}
	healthyTput := make(map[string]float64, len(methods))
	idx := 0
	for i, scen := range scenarios {
		for range methods {
			cell := reports[idx : idx+opts.Seeds]
			idx += opts.Seeds
			row := Fig14Row{Scenario: scen, RowSummary: campaign.Summarize(cell)}
			if scen == "healthy" {
				healthyTput[row.Method] = row.TokensPerSec
			}
			if base := healthyTput[row.Method]; base > 0 {
				row.GoodputRatio = row.TokensPerSec / base
			}
			if sched := scheds[i]; sched != nil {
				row.RecoveryIters = campaign.RecoveryIters(cell[0].Records,
					sched.FirstTransition(), 1.1)
			}
			if row.Method == "Zeppelin" {
				res.Samples[scen] = cell[0]
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Fig14Ratio returns a method's goodput ratio (scenario over healthy).
func Fig14Ratio(res *Fig14Result, scenario, method string) float64 {
	for _, row := range res.Rows {
		if row.Scenario == scenario && row.Method == method {
			return row.GoodputRatio
		}
	}
	return 0
}

// Fig14DegradationEdge is the figure's headline: Zeppelin's goodput
// ratio over TE CP's for a scenario. Above 1 means Zeppelin degraded
// strictly less than the even-split baseline under the same faults.
func Fig14DegradationEdge(res *Fig14Result, scenario string) float64 {
	te := Fig14Ratio(res, scenario, "TE CP")
	if te == 0 {
		return 0
	}
	return Fig14Ratio(res, scenario, "Zeppelin") / te
}

// WriteFig14 renders the per-scenario tables and Zeppelin's fault-marked
// campaign timelines.
func WriteFig14(w io.Writer, opts Options) error {
	res, err := Fig14(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 14: fault and elasticity campaigns, %d iterations, %s, 7B, 24 GPUs (Cluster A)\n",
		res.Iters, res.Arrival)
	for _, scen := range res.Scenarios {
		fmt.Fprintf(w, "\nscenario %s:\n", scen)
		fmt.Fprintf(w, "  %-28s %10s %9s %9s %8s %9s %9s\n",
			"method", "tok/s", "ratio", "p99(s)", "replans", "recov(s)", "rec-iters")
		for _, row := range res.Rows {
			if row.Scenario != scen {
				continue
			}
			fmt.Fprintf(w, "  %-28s %10.0f %9.3f %9.3f %8.1f %9.2f %9d\n",
				row.Method, row.TokensPerSec, row.GoodputRatio, row.P99IterTime,
				row.Replans, row.RecoverySeconds, row.RecoveryIters)
		}
		if scen != "healthy" {
			fmt.Fprintf(w, "  Zeppelin-over-TE-CP degradation edge: %.3f\n", Fig14DegradationEdge(res, scen))
		}
	}
	for _, scen := range []string{"straggler", "shrink"} {
		if sample := res.Samples[scen]; sample != nil {
			fmt.Fprintf(w, "\nZeppelin %s campaign (seed 0):\n", scen)
			trace.CampaignTimeline(w, sample.TraceRows(), 60, 25)
		}
	}
	return nil
}
