package experiments

import (
	"fmt"
	"io"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/runner"
	"zeppelin/internal/seq"
	"zeppelin/internal/trace"
	"zeppelin/internal/trainer"
	"zeppelin/internal/zeppelin"
)

// Fig12Scenario is one of the three traced executions.
type Fig12Scenario struct {
	Title  string
	Method trainer.Method
	Batch  []seq.Sequence
}

// Fig12Scenarios reproduces the traced setups: a 3B model on 16 GPUs with
// a 64k total context on Cluster A — (a) TE CP on a single 64k sequence,
// (b) Zeppelin on the same sequence (one inter-node ring), (c) Zeppelin
// on a multi-sequence batch (intra-node rings + local sequences only).
func Fig12Scenarios() []Fig12Scenario {
	single := []seq.Sequence{{ID: 0, Len: 64 << 10}}
	multi := []seq.Sequence{
		{ID: 0, Len: 30 << 10}, {ID: 1, Len: 18 << 10}, {ID: 2, Len: 8 << 10},
		{ID: 3, Len: 4 << 10}, {ID: 4, Len: 3 << 10}, {ID: 5, Len: 2560}, {ID: 6, Len: 512},
	}
	return []Fig12Scenario{
		{"a) TE CP, single 64k sequence", baselines.TECP{}, single},
		{"b) Zeppelin, single 64k sequence (inter-node ring)", zeppelin.Full(), single},
		{"c) Zeppelin, multiple sequences (intra-node rings + local)", zeppelin.Full(), multi},
	}
}

// Fig12Trace runs one scenario's attention layer (forward + backward) and
// returns the collected events. The events are copies, so the engine's
// graph storage goes back to the pool before it returns.
func Fig12Trace(sc Fig12Scenario) ([]trace.Event, error) {
	cfg := trainer.Config{
		Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 2, TP: 1,
		TokensPerGPU: 4096, Seed: 1,
	}
	env, err := cfg.NewEnv()
	if err != nil {
		return nil, err
	}
	defer env.E.Release()
	pl, err := sc.Method.Plan(env, sc.Batch)
	if err != nil {
		return nil, err
	}
	fwd := pl.EmitAttention(env, false)
	pl.EmitAttention(env, true, fwd)
	if _, err := env.E.Run(); err != nil {
		return nil, err
	}
	return trace.Collect(env.E), nil
}

// Fig12Traced pairs a traced scenario with its collected events.
type Fig12Traced struct {
	Title  string        `json:"title"`
	Events []trace.Event `json:"events"`
}

// Fig12Traces runs all three scenarios — independent simulations, so
// they fan out bounded by opts.Workers — and returns the traces in
// scenario order.
func Fig12Traces(opts Options) ([]Fig12Traced, error) {
	scenarios := Fig12Scenarios()
	out := make([]Fig12Traced, len(scenarios))
	if err := runner.ForEach(opts.ctx(), opts.Workers, len(scenarios), func(i int) error {
		events, err := Fig12Trace(scenarios[i])
		if err != nil {
			return fmt.Errorf("fig12 %q: %w", scenarios[i].Title, err)
		}
		out[i] = Fig12Traced{Title: scenarios[i].Title, Events: events}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteFig12 renders all three timelines with per-kind round statistics.
func WriteFig12(w io.Writer, opts Options) error {
	fmt.Fprintln(w, "Figure 12: attention fwd+bwd timelines, 3B model, 16 GPUs, 64k context, Cluster A")
	traces, err := Fig12Traces(opts)
	if err != nil {
		return err
	}
	for _, tr := range traces {
		events := tr.Events
		fmt.Fprintf(w, "\n%s\n", tr.Title)
		trace.Timeline(w, events, []int{0, 8, 12}, 100)
		fmt.Fprintln(w, "forward phase statistics:")
		trace.WriteStats(w, trace.Filter(events, "attn-fwd"))
		fmt.Fprintln(w, "backward phase statistics:")
		trace.WriteStats(w, trace.Filter(events, "attn-bwd"))
	}
	return nil
}
