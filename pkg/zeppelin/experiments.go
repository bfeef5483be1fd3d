package zeppelin

import (
	"context"
	"fmt"
	"io"

	"zeppelin/internal/experiments"
	"zeppelin/internal/workload"
)

// Options control experiment fidelity and execution for the experiment
// entry points.
type Options struct {
	// Seeds is the number of independently sampled batches (or
	// campaigns) averaged per cell; <= 0 selects 3.
	Seeds int
	// Workers bounds the concurrent simulation pool; <= 0 selects
	// GOMAXPROCS. Results are bit-identical at every worker count.
	Workers int
}

// experiment is one runnable experiment: its structured result and its
// paper-style text rendering, both on resolved internal options.
type experiment struct {
	name   string
	run    func(experiments.Options) (any, error)
	render func(io.Writer, experiments.Options) error
}

// result adapts an experiment's typed result function to the table.
func result[T any](f func(experiments.Options) (T, error)) func(experiments.Options) (any, error) {
	return func(o experiments.Options) (any, error) { return f(o) }
}

// static adapts an experiment that needs no options and cannot fail.
func static[T any](v func() T) func(experiments.Options) (any, error) {
	return func(experiments.Options) (any, error) { return v(), nil }
}

// staticText adapts a rendering that needs no options and cannot fail.
func staticText(f func(io.Writer)) func(io.Writer, experiments.Options) error {
	return func(w io.Writer, _ experiments.Options) error {
		f(w)
		return nil
	}
}

// experimentTable lists every experiment in paper order.
var experimentTable = []experiment{
	{"fig1", static(experiments.Fig1), staticText(experiments.WriteFig1)},
	{"table2", static(func() []workload.Dataset { return workload.Eval }), staticText(experiments.WriteTable2)},
	{"fig3", result(experiments.Fig3All), experiments.WriteFig3},
	{"fig5", static(experiments.Fig5), staticText(experiments.WriteFig5)},
	{"fig8", result(experiments.Fig8), experiments.WriteFig8},
	{"fig9", result(experiments.Fig9), experiments.WriteFig9},
	{"fig10", result(experiments.Fig10), experiments.WriteFig10},
	{"fig11", result(experiments.Fig11), experiments.WriteFig11},
	{"fig12", result(experiments.Fig12Traces), experiments.WriteFig12},
	{"fig13", result(experiments.Fig13), experiments.WriteFig13},
	{"fig14", result(experiments.Fig14), experiments.WriteFig14},
	{"fig15", result(experiments.Fig15), experiments.WriteFig15},
	{"fig16", result(experiments.Fig16), experiments.WriteFig16},
	{"table3", result(experiments.Table3Opts), func(w io.Writer, opts experiments.Options) error {
		cols, err := experiments.Table3Opts(opts)
		if err != nil {
			return err
		}
		return experiments.RenderTable3(w, cols)
	}},
}

// Experiments lists every runnable experiment name in paper order —
// the valid inputs to RunExperiment, RenderExperiment, and the
// /v1/experiments/{name} endpoint ("all" is additionally accepted by
// the CLI and expands to this sequence).
func Experiments() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

// IsExperiment reports whether name is a runnable experiment.
func IsExperiment(name string) bool {
	_, err := experimentByName(name)
	return err == nil
}

// experimentByName looks one experiment up in the table.
func experimentByName(name string) (experiment, error) {
	for _, e := range experimentTable {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("zeppelin: unknown experiment %q", name)
}

// internal maps public options plus a context onto the internal
// experiment options.
func (o Options) internal(ctx context.Context) experiments.Options {
	return experiments.Options{Seeds: o.Seeds, Workers: o.Workers, Ctx: ctx}
}

// RunExperiment computes one experiment's structured result — the JSON
// document the /v1/experiments/{name} endpoint serves. Cancelling ctx
// stops the experiment's simulation grid and returns ctx.Err().
func RunExperiment(ctx context.Context, name string, o Options) (any, error) {
	e, err := experimentByName(name)
	if err != nil {
		return nil, err
	}
	return e.run(o.internal(ctx))
}

// RenderExperiment writes one experiment's paper-style text rendering.
func RenderExperiment(ctx context.Context, w io.Writer, name string, o Options) error {
	e, err := experimentByName(name)
	if err != nil {
		return err
	}
	return e.render(w, o.internal(ctx))
}

// NamedResult pairs an experiment name with its structured result — the
// element of the `all` JSON artifact (an ordered array, not a map, so
// the paper ordering survives encoding).
type NamedResult struct {
	Name   string `json:"name"`
	Result any    `json:"result"`
}

// RunAllExperiments computes every experiment in paper order.
func RunAllExperiments(ctx context.Context, o Options) ([]NamedResult, error) {
	opts := o.internal(ctx)
	out := make([]NamedResult, 0, len(experimentTable))
	for _, e := range experimentTable {
		r, err := e.run(opts)
		if err != nil {
			return nil, err
		}
		out = append(out, NamedResult{Name: e.name, Result: r})
	}
	return out, nil
}

// RenderAllExperiments renders every experiment in paper order, under
// `================ name ================` banners.
func RenderAllExperiments(ctx context.Context, w io.Writer, o Options) error {
	opts := o.internal(ctx)
	for _, e := range experimentTable {
		fmt.Fprintf(w, "\n================ %s ================\n", e.name)
		if err := e.render(w, opts); err != nil {
			return err
		}
	}
	return nil
}

// ThroughputRequest asks for one cell's seed-averaged throughput — the
// building block of the compare and moe examples.
type ThroughputRequest struct {
	// Model names the transformer preset; empty selects "7B".
	Model string `json:"model,omitempty"`
	// Cluster is the simulated cell.
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// Dataset names the length distribution; empty selects "arxiv".
	Dataset string `json:"dataset,omitempty"`
	// Method is the scheduling method; empty selects "zeppelin".
	Method string `json:"method,omitempty"`
	// Seeds is the number of sampled batches averaged; <= 0 selects 3.
	Seeds int `json:"seeds,omitempty"`
}

// MeanThroughput runs the requested method on Seeds independently
// sampled batches and returns the mean tokens/second.
func MeanThroughput(ctx context.Context, req ThroughputRequest) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cfg, d, m, err := PlanRequest{
		Model: req.Model, Cluster: req.Cluster, Dataset: req.Dataset, Method: req.Method,
	}.resolve()
	if err != nil {
		return 0, err
	}
	seeds := req.Seeds
	if seeds <= 0 {
		seeds = 3
	}
	cell := experiments.Cell{
		Model: cfg.Model, Spec: cfg.Spec, Nodes: cfg.Nodes,
		TP: cfg.TP, TokensPerGPU: cfg.TokensPerGPU,
	}
	return experiments.MeanThroughput(ctx, cell, d.Batch, m, seeds)
}
