package experiments

import (
	"fmt"
	"io"

	"zeppelin/internal/campaign"
	"zeppelin/internal/trace"
	"zeppelin/internal/workload/serve"
	"zeppelin/internal/zeppelin"
)

// Fig16 is the serving-scenario experiment the training-side figures
// stop short of: Zeppelin driving a bursty multi-client request stream
// (six gamma clients, CV 2, with a 3× rate burst in the middle window)
// on the 7B / 16-GPU Cluster A cell, once per routing objective. The
// comparison isolates what KV-affinity routing is worth: keeping a
// session on its home rank skips recomputing its shared prefix, which
// raises effective per-tick capacity exactly when the burst has the
// queue at its deepest — so affinity's win shows up in per-class tail
// latency and deadline violations, not just token throughput.

// Fig16Iters caps the serving horizon; the stream normally ends earlier,
// when the timeline drains.
const Fig16Iters = 10000

// fig16SpecText is the scenario in the -serve grammar (the CLI
// equivalent: `zeppelin serve -serve "<this>"` with -route overridden
// per row).
const fig16SpecText = "clients=6,arrival=gamma:cv=2.0," +
	"rate=20@0-20s;60@20-40s;15@40-80s," +
	"slo=interactive:p99=2.5s:prio=2;batch:p99=15s:prio=1," +
	"dataset=stackexchange,sessions=8,prefix=0.6,form=priority"

// fig16Spec resolves the scenario for one routing objective.
func fig16Spec(route string) (serve.Spec, error) {
	spec, err := serve.Parse(fig16SpecText + ",route=" + route)
	if err != nil {
		return serve.Spec{}, fmt.Errorf("fig16: %w", err)
	}
	return spec, nil
}

// Fig16Route is one routing objective's seed-averaged outcome.
type Fig16Route struct {
	Route string              `json:"route"`
	Row   campaign.RowSummary `json:"row"`
	// Classes are the per-SLO-class serving metrics, highest priority
	// first, seed-averaged.
	Classes []campaign.ClassMetrics `json:"classes"`
	// SavedTokens is the mean prefix tokens KV reuse skipped per
	// campaign; ViolationRate the overall deadline-violation fraction.
	SavedTokens   float64 `json:"saved_tokens"`
	ViolationRate float64 `json:"violation_rate"`
}

// Fig16Result is the experiment's structured output: one row per
// routing objective plus the affinity seed-0 report for timeline
// rendering.
type Fig16Result struct {
	Iters     int              `json:"iters"`
	Generator string           `json:"generator"`
	Formation string           `json:"formation"`
	Routes    []Fig16Route     `json:"routes"`
	Sample    *campaign.Report `json:"sample"`
}

// Fig16 runs the routing comparison. Each (route × seed) campaign is an
// independent deterministic simulation, so the grid fans out with
// bit-identical results at every pool size.
func Fig16(opts Options) (*Fig16Result, error) {
	opts = opts.normalized()
	routes := serve.Routes
	var cfgs []campaign.Config
	for _, route := range routes {
		spec, err := fig16Spec(route)
		if err != nil {
			return nil, err
		}
		for s := 0; s < opts.Seeds; s++ {
			cfgs = append(cfgs, campaign.Config{
				Trainer: CampaignCell(SeedValue(s)),
				Method:  zeppelin.Full(),
				Iters:   Fig16Iters,
				Serve:   &campaign.ServeConfig{Spec: spec},
			})
		}
	}
	reports, err := campaign.RunGrid(opts.ctx(), cfgs, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("fig16: %w", err)
	}

	res := &Fig16Result{
		Iters:     Fig16Iters,
		Generator: reports[0].Summary.Arrival,
		Formation: "priority",
	}
	for r, route := range routes {
		cell := reports[r*opts.Seeds : (r+1)*opts.Seeds]
		row := Fig16Route{
			Route:   route,
			Row:     campaign.Summarize(cell),
			Classes: campaign.SummarizeClasses(cell),
		}
		var saved, requests, violations float64
		for _, rep := range cell {
			for _, rec := range rep.Records {
				saved += float64(rec.SavedTokens)
			}
			requests += float64(rep.Summary.Requests)
			violations += float64(rep.Summary.Violations)
		}
		row.SavedTokens = saved / float64(len(cell))
		if requests > 0 {
			row.ViolationRate = violations / requests
		}
		res.Routes = append(res.Routes, row)
		if route == "affinity" {
			res.Sample = cell[0]
		}
	}
	return res, nil
}

// classP99 returns one route's seed-averaged p99 latency for a class.
func classP99(r Fig16Route, class string) float64 {
	for _, cm := range r.Classes {
		if cm.Class == class {
			return cm.P99Latency
		}
	}
	return 0
}

// Fig16AffinityWin returns the balance-over-affinity ratio of the
// interactive class's p99 latency — the experiment's pinned headline:
// how much tail latency KV-affinity routing removes for the
// deadline-tightest traffic under the burst.
func Fig16AffinityWin(res *Fig16Result) float64 {
	var balance, affinity float64
	for _, r := range res.Routes {
		switch r.Route {
		case "balance":
			balance = classP99(r, "interactive")
		case "affinity":
			affinity = classP99(r, "interactive")
		}
	}
	if affinity == 0 {
		return 0
	}
	return balance / affinity
}

// WriteFig16 renders the per-route serving tables and the affinity
// sample timeline.
func WriteFig16(w io.Writer, opts Options) error {
	res, err := Fig16(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 16: serving-scenario routing comparison, %s, formation %s, 7B, 16 GPUs (Cluster A)\n",
		res.Generator, res.Formation)
	for _, r := range res.Routes {
		fmt.Fprintf(w, "\nroute %s: %.0f tok/s, p99 tick %.3fs, %.0f prefix tokens reused, %.1f%% violations\n",
			r.Route, r.Row.TokensPerSec, r.Row.P99IterTime, r.SavedTokens, 100*r.ViolationRate)
		campaign.WriteClassTable(w, r.Classes)
	}
	fmt.Fprintf(w, "\naffinity interactive-p99 win over balance: %.2fx\n", Fig16AffinityWin(res))
	if res.Sample != nil {
		fmt.Fprintf(w, "\naffinity campaign (seed 0):\n")
		trace.CampaignTimeline(w, res.Sample.TraceRows(), 60, 25)
	}
	return nil
}
