package experiments

import (
	"fmt"
	"io"

	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/trace"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// Fig13 is the campaign experiment the paper stops short of: the four
// compared systems driven through a 200-iteration drifting stream
// (arxiv → github → prolong64k) on the 7B / 16-GPU Cluster A cell, with
// the shape-dependent methods under threshold replanning, plus a policy
// ablation running Zeppelin under always/never replanning. It measures
// what the one-shot figures cannot — how balance survives workload
// drift when replanning has a cost.

// Fig13Iters is the campaign horizon.
const Fig13Iters = 200

// CampaignCell is the streaming campaign cell: the first Fig. 8 panel's
// configuration (7B, 16 GPUs, Cluster A). The fig13 grid and the CLI
// campaign subcommand both stream over it.
func CampaignCell(seed int64) trainer.Config {
	return trainer.Config{
		Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2, TP: 1,
		TokensPerGPU: 4096, Seed: seed,
	}
}

// fig13Arrival is the drifting stream all rows share.
func fig13Arrival() campaign.Arrival {
	return campaign.Drift{
		Path:  []workload.Dataset{workload.ArXiv, workload.GitHub, workload.ProLong64k},
		Iters: Fig13Iters,
	}
}

// TuneScenario returns the closed-loop tuning scenario: the fig13 drift
// cell under Zeppelin, compressed to the given horizon (zero selects the
// full Fig13Iters). The factory is pure — every call builds an
// independent Config with a fresh method instance — so tune evaluations
// can fan out concurrently. The seed argument is the seed index, mapped
// through SeedValue like every other experiment grid.
func TuneScenario(iters int) func(seed int64) campaign.Config {
	if iters <= 0 {
		iters = Fig13Iters
	}
	return func(seed int64) campaign.Config {
		return campaign.Config{
			Trainer: CampaignCell(SeedValue(int(seed))),
			Method:  zeppelin.Full(),
			Iters:   iters,
			Arrival: campaign.Drift{
				Path:  []workload.Dataset{workload.ArXiv, workload.GitHub, workload.ProLong64k},
				Iters: iters,
			},
		}
	}
}

// fig13Rows enumerates the campaign grid: every method under the
// threshold controller, then the Zeppelin policy ablation.
func fig13Rows() []struct {
	Method trainer.Method
	Policy campaign.Policy
} {
	rows := make([]struct {
		Method trainer.Method
		Policy campaign.Policy
	}, 0, 6)
	for _, m := range Methods() {
		rows = append(rows, struct {
			Method trainer.Method
			Policy campaign.Policy
		}{m, campaign.Threshold{}})
	}
	for _, p := range []campaign.Policy{campaign.Always{}, campaign.Never{}} {
		rows = append(rows, struct {
			Method trainer.Method
			Policy campaign.Policy
		}{zeppelin.Full(), p})
	}
	return rows
}

// Fig13Result is the experiment's structured output: the seed-averaged
// row summaries plus one full per-iteration report (Zeppelin under
// threshold replanning, first seed) for timeline rendering and
// downstream analysis.
type Fig13Result struct {
	Iters   int                   `json:"iters"`
	Arrival string                `json:"arrival"`
	Rows    []campaign.RowSummary `json:"rows"`
	Sample  *campaign.Report      `json:"sample"`
}

// Fig13 runs the campaign grid. Each (row × seed) campaign is an
// independent deterministic simulation, so the grid fans out across the
// worker pool via runner.ForEach with bit-identical results at every
// pool size.
func Fig13(opts Options) (*Fig13Result, error) {
	opts = opts.normalized()
	rows := fig13Rows()
	// Row-major (row × seed) grid: seeds of one row stay adjacent.
	var cfgs []campaign.Config
	for _, row := range rows {
		for s := 0; s < opts.Seeds; s++ {
			cfgs = append(cfgs, campaign.Config{
				Trainer: CampaignCell(SeedValue(s)),
				Method:  row.Method,
				Iters:   Fig13Iters,
				Arrival: fig13Arrival(),
				Policy:  row.Policy,
			})
		}
	}
	reports, err := campaign.RunGrid(opts.ctx(), cfgs, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("fig13: %w", err)
	}

	res := &Fig13Result{Iters: Fig13Iters, Arrival: fig13Arrival().Name()}
	for r := range rows {
		cell := reports[r*opts.Seeds : (r+1)*opts.Seeds]
		res.Rows = append(res.Rows, campaign.Summarize(cell))
		// The sample report: Zeppelin under threshold replanning, seed 0.
		if res.Sample == nil && cell[0].Summary.Method == "Zeppelin" {
			res.Sample = cell[0]
		}
	}
	return res, nil
}

// Fig13CampaignSpeedup returns the Zeppelin-over-TE-CP campaign
// throughput ratio — the long-horizon analogue of the Fig. 8 headline.
func Fig13CampaignSpeedup(res *Fig13Result) float64 {
	var te, zep float64
	for _, row := range res.Rows {
		switch row.Method {
		case "TE CP":
			te = row.TokensPerSec
		case "Zeppelin":
			if zep == 0 { // first Zeppelin row is the threshold one
				zep = row.TokensPerSec
			}
		}
	}
	if te == 0 {
		return 0
	}
	return zep / te
}

// Fig13ReplanWin returns the threshold-over-never Zeppelin throughput
// ratio: what online re-planning is worth under drift.
func Fig13ReplanWin(res *Fig13Result) float64 {
	var thresh, never float64
	for _, row := range res.Rows {
		if row.Method != "Zeppelin" {
			continue
		}
		switch {
		case row.Policy == "never":
			never = row.TokensPerSec
		case thresh == 0:
			thresh = row.TokensPerSec
		}
	}
	if never == 0 {
		return 0
	}
	return thresh / never
}

// WriteFig13 renders the campaign table and the sample timeline.
func WriteFig13(w io.Writer, opts Options) error {
	res, err := Fig13(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 13: %d-iteration streaming campaign, %s, 7B, 16 GPUs (Cluster A)\n\n",
		res.Iters, res.Arrival)
	campaign.WriteRowTable(w, res.Rows)
	fmt.Fprintf(w, "\ncampaign Zeppelin speedup over TE CP: %.2fx\n", Fig13CampaignSpeedup(res))
	fmt.Fprintf(w, "threshold replanning over frozen plan: %.2fx\n", Fig13ReplanWin(res))
	if res.Sample != nil {
		fmt.Fprintf(w, "\nZeppelin threshold campaign (seed 0):\n")
		trace.CampaignTimeline(w, res.Sample.TraceRows(), 60, 25)
	}
	return nil
}
