package experiments

import (
	"fmt"
	"io"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
)

// Fig8Panel is one (model, context, GPUs) grid cell of the end-to-end
// throughput figure: tokens/second per dataset per method.
type Fig8Panel struct {
	Model   string
	Context int // total tokens
	GPUs    int
	Cluster string
	TP      int
	// Tput[dataset][method] in Fig. 8 order.
	Datasets []string
	Methods  []string
	Tput     [][]float64
}

// fig8Cells enumerates the paper's twelve panels: 7B / 13B / 8×550M on
// Cluster A (TP=2 for 13B) and 30B on Cluster C with TP=2, each at total
// contexts 64k/128k/256k with GPU counts scaled to keep ~4k tokens per
// DP rank.
func fig8Cells() []Cell {
	var cells []Cell
	add := func(mc model.Config, spec cluster.Spec, tp int, scales [][2]int) {
		for _, sc := range scales {
			ctx, gpus := sc[0]<<10, sc[1]
			cells = append(cells, Cell{
				Model: mc, Spec: spec, Nodes: gpus / spec.GPUsPerNode, TP: tp,
				TokensPerGPU: ctx / gpus,
			})
		}
	}
	add(model.LLaMA7B, cluster.ClusterA, 1, [][2]int{{64, 16}, {128, 32}, {256, 64}})
	add(model.LLaMA13B, cluster.ClusterA, 2, [][2]int{{64, 32}, {128, 64}, {256, 128}})
	add(model.MoE8x550M, cluster.ClusterA, 1, [][2]int{{64, 16}, {128, 32}, {256, 64}})
	add(model.LLaMA30B, cluster.ClusterC, 2, [][2]int{{64, 32}, {128, 64}, {256, 128}})
	return cells
}

// Fig8 runs the full end-to-end grid: all (panel × dataset × method ×
// seed) cells are submitted as one job grid and fan out across the
// runner's worker pool.
func Fig8(opts Options) ([]Fig8Panel, error) {
	opts = opts.normalized()
	methods := Methods()
	var names []string
	for _, m := range methods {
		names = append(names, m.Name())
	}
	cells := fig8Cells()
	var g grid
	key := func(cell Cell, dataset, method string) string {
		return fmt.Sprintf("fig8/%s/%s/%s/%s",
			cell.Model.Name, fmtK(cell.TokensPerGPU*cell.Nodes*cell.Spec.GPUsPerNode), dataset, method)
	}
	for _, cell := range cells {
		for _, d := range evalDatasets() {
			for _, m := range methods {
				g.add(key(cell, d.Name, m.Name()), cell, d.Batch, m, opts.Seeds)
			}
		}
	}
	means, err := g.run(opts.ctx(), opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	var panels []Fig8Panel
	for _, cell := range cells {
		p := Fig8Panel{
			Model:   cell.Model.Name,
			Context: cell.TokensPerGPU * cell.Nodes * cell.Spec.GPUsPerNode,
			GPUs:    cell.Nodes * cell.Spec.GPUsPerNode,
			Cluster: cell.Spec.Name,
			TP:      cell.TP,
			Methods: names,
		}
		for _, d := range evalDatasets() {
			p.Datasets = append(p.Datasets, d.Name)
			row := make([]float64, len(methods))
			for i, m := range methods {
				row[i] = means[key(cell, d.Name, m.Name())]
			}
			p.Tput = append(p.Tput, row)
		}
		panels = append(panels, p)
	}
	return panels, nil
}

// AverageSpeedup computes the mean Zeppelin-over-TE-CP ratio across all
// panel/dataset cells — the paper's headline "average 2.80×".
func AverageSpeedup(panels []Fig8Panel) float64 {
	var sum float64
	var n int
	for _, p := range panels {
		for _, row := range p.Tput {
			if row[0] > 0 {
				sum += row[len(row)-1] / row[0]
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxSpeedup returns the largest Zeppelin-over-TE ratio in the grid (the
// paper reports up to 6.60×).
func MaxSpeedup(panels []Fig8Panel) float64 {
	best := 0.0
	for _, p := range panels {
		for _, row := range p.Tput {
			if row[0] > 0 {
				if r := row[len(row)-1] / row[0]; r > best {
					best = r
				}
			}
		}
	}
	return best
}

// WriteFig8 renders every panel with per-method speedups.
func WriteFig8(w io.Writer, opts Options) error {
	panels, err := Fig8(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 8: end-to-end training throughput")
	for _, p := range panels {
		fmt.Fprintf(w, "\n%s, %s context, %d GPUs (Cluster %s, TP=%d)\n",
			p.Model, fmtK(p.Context), p.GPUs, p.Cluster, p.TP)
		for i, d := range p.Datasets {
			fmt.Fprintf(w, "  %s:\n", d)
			speedupRow(w, p.Methods, p.Tput[i])
		}
	}
	fmt.Fprintf(w, "\naverage Zeppelin speedup over TE CP: %.2fx (paper: 2.80x)\n", AverageSpeedup(panels))
	fmt.Fprintf(w, "maximum Zeppelin speedup over TE CP: %.2fx (paper: 6.60x)\n", MaxSpeedup(panels))
	return nil
}
