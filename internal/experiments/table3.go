package experiments

import (
	"fmt"
	"io"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/runner"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// Table3Range is a min–max cost range across ranks, in milliseconds, as
// the paper's Table 3 reports.
type Table3Range struct{ Min, Max float64 }

// Table3Column is the component breakdown for one length distribution.
type Table3Column struct {
	Distribution string
	Forward      Table3Range
	ForwardAttn  Table3Range
	ForwardLin   Table3Range
	ForwardRemap Table3Range
	SeqPartition Table3Range
	Backward     Table3Range
}

// Table3 profiles the full-iteration component costs for Zeppelin on the
// 7B model across four Cluster C nodes with a 128k total context, under
// the Balanced and Skewed length distributions.
func Table3() ([]Table3Column, error) { return Table3Opts(Options{}) }

// Table3Opts is Table3 with an explicit execution configuration; both
// distributions run concurrently through runner.ForEach.
func Table3Opts(opts Options) ([]Table3Column, error) {
	cfg := trainer.Config{
		Model: model.LLaMA7B, Spec: cluster.ClusterC, Nodes: 4, TP: 1,
		TokensPerGPU: (128 << 10) / 32, Seed: 11,
	}
	samplers := []struct {
		name string
		s    Sampler
	}{
		{"Balanced", workload.BalancedBatch},
		{"Skewed", workload.SkewedBatch},
	}
	results := make([]*trainer.Result, len(samplers))
	err := runner.ForEach(opts.ctx(), opts.Workers, len(samplers), func(i int) error {
		res, err := trainer.Run(cfg, zeppelin.Full(), cfg.Batch(samplers[i].s))
		if err != nil {
			return fmt.Errorf("%s: %w", samplers[i].name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	var out []Table3Column
	for i, sp := range samplers {
		res := results[i]
		layers := float64(cfg.Model.Layers)
		col := Table3Column{Distribution: sp.name}
		col.ForwardAttn = rankRange(res.PerRankPhase[trainer.PhaseAttnFwd], layers)
		col.ForwardLin = rankRange(res.PerRankPhase[trainer.PhaseLinearFwd], layers)
		// Remapping runs twice per direction; attribute half to forward.
		col.ForwardRemap = rankRange(res.PerRankPhase[trainer.PhaseRemap], layers/2)
		col.SeqPartition = Table3Range{
			Min: res.HostOverhead * 1e3, Max: res.HostOverhead * 1e3,
		}
		col.Forward = Table3Range{
			Min: col.ForwardAttn.Min + col.ForwardLin.Min + col.ForwardRemap.Min,
			Max: col.ForwardAttn.Max + col.ForwardLin.Max + col.ForwardRemap.Max,
		}
		bwdAttn := rankRange(res.PerRankPhase[trainer.PhaseAttnBwd], layers)
		bwdLin := rankRange(res.PerRankPhase[trainer.PhaseLinearBwd], layers)
		col.Backward = Table3Range{Min: bwdAttn.Min + bwdLin.Min, Max: bwdAttn.Max + bwdLin.Max}
		out = append(out, col)
	}
	return out, nil
}

// rankRange converts per-rank per-layer busy seconds into a min–max
// millisecond range scaled to the full model depth. Ranks with zero
// activity in the phase are excluded (they hold no work of that kind).
func rankRange(perRank []float64, layers float64) Table3Range {
	var r Table3Range
	first := true
	for _, v := range perRank {
		ms := v * layers * 1e3
		if ms == 0 {
			continue
		}
		if first || ms < r.Min {
			r.Min = ms
		}
		if ms > r.Max {
			r.Max = ms
		}
		first = false
	}
	return r
}

// RenderTable3 renders already-computed columns (Table3Opts computes
// them).
func RenderTable3(w io.Writer, cols []Table3Column) error {
	fmt.Fprintln(w, "Table 3: per-component cost ranges across ranks (ms), 7B, 128k, 4 Cluster C nodes")
	fmt.Fprintf(w, "%-30s", "Components (ms)")
	for _, c := range cols {
		fmt.Fprintf(w, "%20s", c.Distribution)
	}
	fmt.Fprintln(w)
	row := func(name string, get func(Table3Column) Table3Range) {
		fmt.Fprintf(w, "%-30s", name)
		for _, c := range cols {
			r := get(c)
			fmt.Fprintf(w, "%9.0f - %-8.0f", r.Min, r.Max)
		}
		fmt.Fprintln(w)
	}
	row("Forward", func(c Table3Column) Table3Range { return c.Forward })
	row("Forward Quadratic Attention", func(c Table3Column) Table3Range { return c.ForwardAttn })
	row("Forward Linear Modules", func(c Table3Column) Table3Range { return c.ForwardLin })
	row("Forward Remapping Layer", func(c Table3Column) Table3Range { return c.ForwardRemap })
	row("Forward Sequence Partition", func(c Table3Column) Table3Range { return c.SeqPartition })
	row("Backward", func(c Table3Column) Table3Range { return c.Backward })
	return nil
}
