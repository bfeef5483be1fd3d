package experiments

import (
	"fmt"
	"io"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/trainer"
	"zeppelin/internal/zeppelin"
)

// Fig11Variant pairs an ablation label with its method configuration.
type Fig11Variant struct {
	Label  string
	Method trainer.Method
}

// Fig11Variants are the five configurations of the component ablation, in
// the paper's legend order.
func Fig11Variants() []Fig11Variant {
	return []Fig11Variant{
		{"TE CP", baselines.TECP{}},
		{"w/ Routing", baselines.TECP{Routed: true}},
		{"w/ Attn Eng", zeppelin.Method{}},
		{"w/ Routing & Attn Eng", zeppelin.Method{Routing: true}},
		{"w/ All", zeppelin.Full()},
	}
}

// Fig11Row is one dataset's throughput per ablation variant.
type Fig11Row struct {
	Dataset string
	Labels  []string
	Tput    []float64
}

// Fig11 runs the component ablation: 3B model, 32 GPUs, Cluster A. The
// variant labels key the grid (several variants share a display name, so
// Method.Name() would collide).
func Fig11(opts Options) ([]Fig11Row, error) {
	opts = opts.normalized()
	cell := Cell{Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 4, TP: 1, TokensPerGPU: 4096}
	var g grid
	key := func(dataset, label string) string {
		return fmt.Sprintf("fig11/%s/%s", dataset, label)
	}
	for _, d := range evalDatasets() {
		for _, v := range Fig11Variants() {
			g.add(key(d.Name, v.Label), cell, d.Batch, v.Method, opts.Seeds)
		}
	}
	means, err := g.run(opts.ctx(), opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("fig11: %w", err)
	}
	var out []Fig11Row
	for _, d := range evalDatasets() {
		row := Fig11Row{Dataset: d.Name}
		for _, v := range Fig11Variants() {
			row.Labels = append(row.Labels, v.Label)
			row.Tput = append(row.Tput, means[key(d.Name, v.Label)])
		}
		out = append(out, row)
	}
	return out, nil
}

// WriteFig11 renders the ablation with TE CP-normalized speedups.
func WriteFig11(w io.Writer, opts Options) error {
	rows, err := Fig11(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 11: component ablation, 3B model, 32 GPUs, Cluster A")
	for _, r := range rows {
		fmt.Fprintf(w, "\n%s:\n", r.Dataset)
		speedupRow(w, r.Labels, r.Tput)
	}
	return nil
}
