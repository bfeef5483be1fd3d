package experiments

import (
	"fmt"
	"io"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
)

// Fig10Row is one (cluster, dataset) cell with all methods' throughput.
type Fig10Row struct {
	Cluster string
	Dataset string
	Methods []string
	Tput    []float64
}

// Fig10 compares Clusters A and B on the 3B model with a 128k total
// context on 32 GPUs, reproducing the GPU–NIC-affinity comparison.
func Fig10(opts Options) ([]Fig10Row, error) {
	opts = opts.normalized()
	var g grid
	key := func(clusterName, dataset, method string) string {
		return fmt.Sprintf("fig10/%s/%s/%s", clusterName, dataset, method)
	}
	for _, spec := range []cluster.Spec{cluster.ClusterA, cluster.ClusterB} {
		for _, d := range evalDatasets() {
			cell := Cell{
				Model: model.LLaMA3B, Spec: spec, Nodes: 4, TP: 1,
				TokensPerGPU: (128 << 10) / 32,
			}
			for _, m := range Methods() {
				g.add(key(spec.Name, d.Name, m.Name()), cell, d.Batch, m, opts.Seeds)
			}
		}
	}
	means, err := g.run(opts.ctx(), opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	var out []Fig10Row
	for _, spec := range []cluster.Spec{cluster.ClusterA, cluster.ClusterB} {
		for _, d := range evalDatasets() {
			row := Fig10Row{Cluster: spec.Name, Dataset: d.Name}
			for _, m := range Methods() {
				row.Methods = append(row.Methods, m.Name())
				row.Tput = append(row.Tput, means[key(spec.Name, d.Name, m.Name())])
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// WriteFig10 renders both clusters' speedup comparisons.
func WriteFig10(w io.Writer, opts Options) error {
	rows, err := Fig10(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 10: 3B, 128k context, 32 GPUs — Cluster A vs Cluster B")
	current := ""
	for _, r := range rows {
		if r.Cluster != current {
			current = r.Cluster
			fmt.Fprintf(w, "\nCluster %s:\n", r.Cluster)
		}
		fmt.Fprintf(w, "  %s:\n", r.Dataset)
		speedupRow(w, r.Methods, r.Tput)
	}
	return nil
}
