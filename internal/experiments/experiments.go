// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment has a typed runner returning
// structured results plus a Write function that renders the same rows or
// series the paper reports. The cmd/zeppelin CLI and the repository-root
// benchmarks both drive these runners.
//
// Experiment index:
//
//	Fig1    — dataset sequence-length distributions
//	Table2  — evaluation dataset bin proportions
//	Fig3    — attention cost breakdown: packing vs even-split CP
//	Fig5    — operation cost curves and the three-zone boundaries
//	Fig8    — end-to-end throughput across models/datasets/scales
//	Fig9    — scalability, 3B on 16–128 GPUs
//	Fig10   — Cluster A vs Cluster B speedups
//	Fig11   — component ablation
//	Fig12   — attention timeline traces
//	Fig13   — streaming campaign: 200-iteration drifting stream
//	Fig14   — fault-schedule campaigns: failures, stragglers, scaling
//	Fig15   — planner fast-path scaling sweep to 8192 ranks
//	Fig16   — serving scenario: SLO classes, balance vs affinity routing
//	Table3  — per-component cost ranges, balanced vs skewed
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/runner"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// Sampler builds a batch for a token budget; workload.Dataset.Batch,
// workload.SkewedBatch and workload.BalancedBatch all satisfy it.
type Sampler func(totalTokens int, rng *rand.Rand) []seq.Sequence

// Methods returns the paper's four compared systems in Fig. 8 order.
func Methods() []trainer.Method {
	return []trainer.Method{
		baselines.TECP{},
		baselines.LLaMACP{},
		baselines.HybridDP{},
		zeppelin.Full(),
	}
}

// AllMethods additionally includes the input-balanced packing strategy of
// Fig. 2a, which the paper analyzes (Fig. 3a) but does not carry into the
// end-to-end comparison.
func AllMethods() []trainer.Method {
	return append([]trainer.Method{baselines.Packing{}}, Methods()...)
}

// Options control experiment fidelity and execution.
type Options struct {
	// Seeds is the number of independently sampled batches averaged per
	// cell (the paper averages training steps 50–150). Default 3.
	Seeds int
	// Workers bounds the simulation pool; <= 0 selects GOMAXPROCS.
	// Results are identical for every worker count.
	Workers int
	// Ctx, when set, bounds every grid fan-out of the experiment:
	// cancellation stops the pool between jobs and the experiment
	// returns ctx.Err(). Nil means Background (run to completion).
	Ctx context.Context
}

// ctx returns the experiment's context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// normalized returns options with defaults applied.
func (o Options) normalized() Options {
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	return o
}

// Cell identifies one throughput measurement configuration.
type Cell struct {
	Model        model.Config
	Spec         cluster.Spec
	Nodes        int
	TP           int
	TokensPerGPU int
}

// Config converts a cell into a trainer configuration for one seed.
func (c Cell) Config(seed int64) trainer.Config {
	return trainer.Config{
		Model:        c.Model,
		Spec:         c.Spec,
		Nodes:        c.Nodes,
		TP:           c.TP,
		TokensPerGPU: c.TokensPerGPU,
		Seed:         seed,
	}
}

// SeedValue is the per-seed RNG base every figure and campaign has
// always used; keep it stable so regenerated numbers match earlier
// revisions. cmd/zeppelin's campaign subcommand uses it too, so CLI
// campaigns and fig13 stream identical per-seed batches.
func SeedValue(s int) int64 { return int64(1000 + 37*s) }

// grid accumulates the (cell × method × seed) simulations of one
// figure, one group per reported mean.
type grid struct {
	groups []group
}

// group is one seed-averaged mean: a cell sampled at `seeds` seeds and
// planned by one method.
type group struct {
	key    string
	cell   Cell
	sample Sampler
	method trainer.Method
	seeds  int
}

// add registers one (cell, sampler, method) mean under a group key.
func (g *grid) add(key string, cell Cell, sample Sampler, m trainer.Method, seeds int) {
	g.groups = append(g.groups, group{key: key, cell: cell, sample: sample, method: m, seeds: max(seeds, 1)})
}

// run simulates every (group, seed) job across a pool of `workers` and
// returns each group's throughput averaged in seed order. The error is
// the failure of the earliest job in add order, named by its key.
func (g *grid) run(ctx context.Context, workers int) (map[string]float64, error) {
	type job struct{ group, seed int }
	var jobs []job
	for gi, gr := range g.groups {
		for s := 0; s < gr.seeds; s++ {
			jobs = append(jobs, job{gi, s})
		}
	}
	tput := make([]float64, len(jobs))
	err := runner.ForEach(ctx, workers, len(jobs), func(i int) error {
		gr := &g.groups[jobs[i].group]
		cfg := gr.cell.Config(SeedValue(jobs[i].seed))
		res, err := trainer.Run(cfg, gr.method, cfg.Batch(gr.sample))
		if err != nil {
			return fmt.Errorf("experiments: job %q: %w", fmt.Sprintf("%s/s%d", gr.key, jobs[i].seed), err)
		}
		tput[i] = res.TokensPerSec
		return nil
	})
	if err != nil {
		return nil, err
	}
	means := make(map[string]float64, len(g.groups))
	next := 0
	for _, gr := range g.groups {
		var sum float64
		for _, t := range tput[next : next+gr.seeds] {
			sum += t
		}
		next += gr.seeds
		means[gr.key] = sum / float64(gr.seeds)
	}
	return means, nil
}

// MeanThroughput runs a method on `seeds` independently sampled batches
// and returns the average tokens/second. It is the single-cell
// convenience wrapper over the grid; figures submit whole grids
// instead so cells fan out across the pool.
func MeanThroughput(ctx context.Context, cell Cell, sample Sampler, m trainer.Method, seeds int) (float64, error) {
	var g grid
	g.add("cell", cell, sample, m, seeds)
	means, err := g.run(ctx, 1)
	if err != nil {
		return 0, err
	}
	return means["cell"], nil
}

// fmtK renders a token count as the paper writes context lengths (64k,
// 2M). Exact multiples keep their integer form; anything else rounds to
// one decimal in the same unit, so a 100000-token budget renders as
// "97.7k" instead of falling back to the raw integer mid-table (the old
// behavior, which mixed "512k" and "100000" in one axis). Counts below
// 1k stay raw — "512" reads better than "0.5k".
func fmtK(tokens int) string {
	const k = 1024
	const m = k * k
	switch {
	case tokens >= m && tokens%m == 0:
		return fmt.Sprintf("%dM", tokens/m)
	case tokens >= m:
		return fmt.Sprintf("%.1fM", float64(tokens)/m)
	case tokens%k == 0 && tokens >= k:
		return fmt.Sprintf("%dk", tokens/k)
	case tokens > k:
		return fmt.Sprintf("%.1fk", float64(tokens)/k)
	default:
		return fmt.Sprintf("%d", tokens)
	}
}

// speedupRow prints one "method: tok/s (x.xx×)" block normalized to the
// first entry, the layout of the Fig. 8 bar annotations.
func speedupRow(w io.Writer, names []string, tput []float64) {
	base := tput[0]
	for i, n := range names {
		ratio := 0.0
		if base > 0 {
			ratio = tput[i] / base
		}
		fmt.Fprintf(w, "    %-28s %10.0f tok/s   %5.2fx\n", n, tput[i], ratio)
	}
}

// Eval datasets in the order every multi-dataset figure uses.
func evalDatasets() []workload.Dataset { return workload.Eval }
