package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	zep "zeppelin/internal/zeppelin"
)

// fig8Plans calls f with the configuration and batch of each of the 108
// Fig. 8 plans: 12 cells × 3 datasets × 3 seeds.
func fig8Plans(t *testing.T, f func(name string, cfg trainer.Config, batch []seq.Sequence)) {
	t.Helper()
	n := 0
	for _, cell := range fig8Cells() {
		for _, d := range evalDatasets() {
			for s := 0; s < 3; s++ {
				cfg := cell.Config(SeedValue(s))
				name := fmt.Sprintf("%s/%d GPUs/%s/s%d", cell.Model.Name, cfg.GPUs(), d.Name, s)
				f(name, cfg, cfg.Batch(d.Batch))
				n++
			}
		}
	}
	if n != 108 {
		t.Fatalf("%d Fig. 8 plans, want 108", n)
	}
}

// TestUniformSpeedsGiveHealthyPlan: the partitioner has one rule set, and
// at uniform speed it is the paper's algorithm. Every rank at 0.5, 1 or
// 2 must plan each Fig. 8 batch exactly as nil speeds do: the same local
// lists, ring ranks, ring weights (so ring token splits) and thresholds.
func TestUniformSpeedsGiveHealthyPlan(t *testing.T) {
	fig8Plans(t, func(name string, cfg trainer.Config, batch []seq.Sequence) {
		env, err := cfg.NewEnv()
		if err != nil {
			t.Fatal(err)
		}
		plan := func(speeds []float64) *partition.Result {
			p, err := partition.New(partition.Config{Cluster: env.C, CapacityTokens: env.CapacityTokens, Speeds: speeds})
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Plan(batch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		want := plan(nil)
		for _, v := range []float64{0.5, 1, 2} {
			speeds := make([]float64, env.C.World())
			for i := range speeds {
				speeds[i] = v
			}
			if got := plan(speeds); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: every rank at speed %v plans differently from nil speeds", name, v)
			}
		}
	})
}

// TestNICDerateKeepsHealthyPlacement: a derated NIC slows no rank, so
// Zeppelin's placement — partition plan and remap plan — must be the
// healthy one.
func TestNICDerateKeepsHealthyPlacement(t *testing.T) {
	type placement interface {
		Plan() *seq.Plan
		RemapPlan() *remap.Plan
	}
	m := zep.Full()
	fig8Plans(t, func(name string, cfg trainer.Config, batch []seq.Sequence) {
		place := func(cfg trainer.Config) placement {
			env, err := cfg.NewEnv()
			if err != nil {
				t.Fatal(err)
			}
			pl, err := m.Plan(env, batch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return pl.(placement)
		}
		want := place(cfg)
		cfg.Health = &cluster.Health{NICDerate: []float64{0.25}}
		got := place(cfg)
		if !reflect.DeepEqual(got.Plan(), want.Plan()) {
			t.Errorf("%s: NIC derate changed the partition plan", name)
		}
		if !reflect.DeepEqual(got.RemapPlan(), want.RemapPlan()) {
			t.Errorf("%s: NIC derate changed the remap plan", name)
		}
	})
}
