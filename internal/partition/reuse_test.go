package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload"
)

// TestThresholdChain pins the candidate space Alg. 1's retry loop walks:
// start, then distinct lengths strictly descending.
func TestThresholdChain(t *testing.T) {
	var p Partitioner
	sorted := []seq.Sequence{
		{ID: 0, Len: 9000}, {ID: 1, Len: 4096}, {ID: 2, Len: 4096},
		{ID: 3, Len: 1000}, {ID: 4, Len: 1000}, {ID: 5, Len: 7},
	}
	got := p.thresholdChain(sorted, 8192)
	want := []int{8192, 4096, 1000, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chain = %v, want %v", got, want)
	}
	// A sequence at or above the start threshold contributes nothing.
	got = p.thresholdChain(sorted[:1], 8192)
	if !reflect.DeepEqual(got, []int{8192}) {
		t.Fatalf("chain = %v, want [8192]", got)
	}
}

// TestReusedPartitionerMatchesFresh: scratch reuse never changes a plan.
// One partitioner, reused across seeds and repeated passes, returns a
// Result deeply equal to a fresh partitioner's — same plan structure,
// same converged thresholds — across workloads, cluster shapes, capacity
// pressure (forcing threshold retries), and degraded effective-speed
// views.
func TestReusedPartitionerMatchesFresh(t *testing.T) {
	type cell struct {
		name     string
		spec     cluster.Spec
		nodes    int
		capacity int
		fill     float64 // fraction of aggregate capacity to sample
		speeds   bool
	}
	cells := []cell{
		{"github-roomy", cluster.ClusterA, 2, 8192, 0.5, false},
		{"github-tight", cluster.ClusterA, 2, 2048, 0.95, false},
		{"arxiv-4node", cluster.ClusterA, 4, 4096, 0.9, false},
		{"clusterC", cluster.ClusterC, 2, 4096, 0.8, false},
		{"degraded", cluster.ClusterA, 2, 4096, 0.7, true},
	}
	for _, cl := range cells {
		t.Run(cl.name, func(t *testing.T) {
			c := cluster.MustNew(cl.spec, cl.nodes)
			speeds := []float64(nil)
			if cl.speeds {
				speeds = make([]float64, c.World())
				for i := range speeds {
					speeds[i] = 1
				}
				speeds[1] = 0.4 // one straggler
			}
			cfg := Config{Cluster: c, CapacityTokens: cl.capacity, Speeds: speeds}
			reused, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seedv := int64(1); seedv <= 3; seedv++ {
				rng := rand.New(rand.NewSource(seedv))
				budget := int(cl.fill * float64(c.World()*cl.capacity))
				batch := workload.GitHub.Batch(budget, rng)

				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Plan(batch)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					got, err := reused.Plan(batch)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d pass %d: reused partitioner's result differs from a fresh one", seedv, pass)
					}
				}
			}
		})
	}
}
