package trainer_test

import (
	"reflect"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/experiments"
	"zeppelin/internal/model"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
)

// TestRecycledGraphReproducesResult: RunPlanned releases each
// iteration's task graph for the next one to build on, so a cell
// simulated after a larger one runs on storage still holding the larger
// graph's tasks and edges. The four Fig. 8 methods run on the 7B 64k
// cell (16 GPUs), then on the 7B 256k cell (64 GPUs), then on the 64k
// cell again, and the second pass over the small cell must read exactly
// what the first did.
//
// A campaign also keeps its environment across iterations (ReuseEnv):
// the engine keeps its resources, and the fabric moves from one health
// view to the next. A last pass runs every method through one reused
// environment, healthy, then with a straggler, then with derated NICs,
// then healthy again, and each result must equal a new environment's.
func TestRecycledGraphReproducesResult(t *testing.T) {
	small := trainer.Config{Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2, TokensPerGPU: 4096, Seed: 1}
	large := small
	large.Nodes = 8
	pass := func(cfg trainer.Config) []*trainer.Result {
		batch := cfg.Batch(workload.GitHub.Batch)
		var out []*trainer.Result
		for _, m := range experiments.Methods() {
			res, err := trainer.Run(cfg, m, batch)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	first := pass(small)
	pass(large)
	again := pass(small)
	for i := range first {
		if !reflect.DeepEqual(first[i], again[i]) {
			t.Errorf("%s: result after the large cell differs:\nfirst %+v\nagain %+v", first[i].Method, first[i], again[i])
		}
	}

	batch := small.Batch(workload.GitHub.Batch)
	var env *trainer.Env
	for _, view := range []struct {
		name string
		h    *cluster.Health
	}{
		{"healthy", nil},
		{"straggler", &cluster.Health{Slow: []float64{1, 1, 1, 2.5, 1, 1, 1, 1, 1, 1, 1.5}}},
		{"nic", &cluster.Health{NICDerate: []float64{1, 0.25, 1, 1, 0.5}}},
		{"healthy again", nil},
	} {
		cfg := small
		cfg.Health = view.h
		for _, m := range experiments.Methods() {
			want, err := trainer.Run(cfg, m, batch)
			if err != nil {
				t.Fatal(err)
			}
			prev := env
			if env, err = cfg.ReuseEnv(env); err != nil {
				t.Fatal(err)
			}
			if prev != nil && env != prev {
				t.Fatalf("%s, %s: ReuseEnv rebuilt an environment of the same node count", view.name, m.Name())
			}
			got, err := trainer.RunOn(cfg, m, env, batch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: result in the reused environment differs:\nreused %+v\nnew    %+v", view.name, want.Method, got, want)
			}
		}
	}
}
