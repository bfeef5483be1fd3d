package experiments

import (
	"fmt"
	"io"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
)

// Fig9Series is throughput vs GPU count for one dataset and one method.
type Fig9Series struct {
	Dataset string
	Method  string
	GPUs    []int
	Tput    []float64
}

// Fig9GPUCounts are the paper's x-axis points (multiples of the 8-GPU
// node size between 16 and 128).
var Fig9GPUCounts = []int{16, 32, 64, 96, 128}

// Fig9 evaluates scalability of the LLaMA 3B model on Cluster A with a
// fixed 4k tokens per GPU, across 16–128 GPUs, as one concurrent grid.
func Fig9(opts Options) ([]Fig9Series, error) {
	opts = opts.normalized()
	var g grid
	key := func(dataset, method string, gpus int) string {
		return fmt.Sprintf("fig9/%s/%s/%d", dataset, method, gpus)
	}
	for _, d := range evalDatasets() {
		for _, m := range Methods() {
			for _, gpus := range Fig9GPUCounts {
				cell := Cell{
					Model: model.LLaMA3B, Spec: cluster.ClusterA,
					Nodes: gpus / 8, TP: 1, TokensPerGPU: 4096,
				}
				g.add(key(d.Name, m.Name(), gpus), cell, d.Batch, m, opts.Seeds)
			}
		}
	}
	means, err := g.run(opts.ctx(), opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	var out []Fig9Series
	for _, d := range evalDatasets() {
		for _, m := range Methods() {
			s := Fig9Series{Dataset: d.Name, Method: m.Name()}
			for _, gpus := range Fig9GPUCounts {
				s.GPUs = append(s.GPUs, gpus)
				s.Tput = append(s.Tput, means[key(d.Name, m.Name(), gpus)])
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// WriteFig9 renders one table per dataset, methods as rows and GPU counts
// as columns.
func WriteFig9(w io.Writer, opts Options) error {
	series, err := Fig9(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 9: scalability, LLaMA 3B on Cluster A, 4k tokens/GPU (tok/s)")
	byDataset := map[string][]Fig9Series{}
	var order []string
	for _, s := range series {
		if _, ok := byDataset[s.Dataset]; !ok {
			order = append(order, s.Dataset)
		}
		byDataset[s.Dataset] = append(byDataset[s.Dataset], s)
	}
	for _, d := range order {
		fmt.Fprintf(w, "\n%s:\n%-28s", d, "method")
		for _, g := range Fig9GPUCounts {
			fmt.Fprintf(w, "%10d", g)
		}
		fmt.Fprintln(w)
		for _, s := range byDataset[d] {
			fmt.Fprintf(w, "%-28s", s.Method)
			for _, tp := range s.Tput {
				fmt.Fprintf(w, "%10.0f", tp)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
