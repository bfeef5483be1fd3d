package campaign

import (
	"context"
	"runtime"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/decision"
	"zeppelin/internal/model"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/workload/serve"
)

// TestSteadyStateAllocs bounds what one steady-state campaign iteration
// allocates, on the 2-node 7B Cluster A cell, planned by the exact-mode
// incremental Zeppelin and traced as the service traces every session.
// A stream keeps its simulation environment across iterations, so an
// iteration allocates for its batch, its plan and its readout, not for
// the cluster it runs on. Rebuilding the environment each iteration, as
// streams did before, builds 64 resources whose FIFOs then regrow: about
// 140 more allocations per training iteration and 120 more per serve
// tick, which trips both bounds. Measured at go1.24.0 on x86-64: 117–128
// per training iteration and 87–94 per serve tick, about 8 more under
// -race, whose sync.Pool drops a quarter of the graph blocks put back.
func TestSteadyStateAllocs(t *testing.T) {
	const warm, n = 20, 40
	cell := trainer.Config{Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2, TP: 1, TokensPerGPU: 4096, Seed: 7}
	spec, err := serve.Parse("clients=16,arrival=gamma:cv=2.0,rate=60@0-80s," +
		"slo=interactive:p99=2.5s:prio=2;batch:p99=15s:prio=1," +
		"dataset=stackexchange,sessions=8,prefix=0.6,form=priority,route=affinity")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		max  float64 // allocations per iteration
	}{
		{"training iteration", Config{Trainer: cell, Method: exactZeppelin(), Iters: warm + n,
			Arrival: Steady{D: workload.ArXiv}, Decisions: &decision.Trace{}}, 170},
		{"serve tick", Config{Trainer: cell, Method: exactZeppelin(), Iters: warm + n,
			Serve: &ServeConfig{Spec: spec}, Decisions: &decision.Trace{}}, 140},
	} {
		st, err := Start(context.Background(), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := func() {
			if _, ok := st.Next(); !ok {
				t.Fatalf("%s: stream stopped early: %v", tc.name, st.Err())
			}
		}
		for i := 0; i < warm; i++ {
			next()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			next()
		}
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / n
		t.Logf("%s: %.1f allocations, %.0f bytes per iteration", tc.name, allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		if allocs > tc.max {
			t.Errorf("%s: %.1f allocations per iteration, want <= %v", tc.name, allocs, tc.max)
		}
	}
}
