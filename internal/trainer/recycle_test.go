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
}
